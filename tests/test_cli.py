"""In-process drives of the command-line front end."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import espectra
from espectra.cli import (
    EXIT_OK,
    EXIT_RECOVERY,
    EXIT_RESULTANT,
    EXIT_USAGE,
    EXIT_VERIFY,
    RunReport,
    main,
)
from espectra.invariants import MainTheoremReport
from espectra.poly_core import tensor_from_json, tensor_to_json
from espectra.generators import random_tensor, tangent_tensor

REFERENCE_SYSTEM = resources.files("espectra") / "fixtures/tangent_ternary_cubic_system.json"


def write_tensor(tmp_path, f, name="tensor.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tensor_to_json(f)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def report_outputs(out):
    return RunReport.parse(out).outputs


def test_echar_reports_tensor_fields(tmp_path, capsys):
    path = write_tensor(tmp_path, random_tensor(1, 3, seed=0))
    code, out = run(capsys, ["echar", "--input", path])
    assert code == EXIT_OK
    o = report_outputs(out)
    assert o["kind"] == "tensor"
    assert (o["n"], o["d"], o["parity"]) == (1, 3, "odd")
    assert o["eigen_count"] == 3
    assert o["degree"] == o["expected_degree"] == 6
    assert o["deficient"] is False
    assert len(o["psi_coeffs"]) == 7


def test_eigen_routes_agree_through_cli(tmp_path, capsys):
    path = write_tensor(tmp_path, random_tensor(1, 4, seed=1))
    code_a, out_a = run(capsys, ["eigen", "--input", path, "--method", "binary"])
    code_b, out_b = run(capsys, ["eigen", "--input", path, "--method", "charpoly"])
    assert code_a == code_b == EXIT_OK
    a, b = report_outputs(out_a), report_outputs(out_b)
    assert a["count"] == b["count"] == 4
    lam_a = sorted(
        (float(p["lam"]["re"]), float(p["lam"]["im"])) for p in a["pairs"]
    )
    lam_b = sorted(
        (float(p["lam"]["re"]), float(p["lam"]["im"])) for p in b["pairs"]
    )
    for (ra, ia), (rb, ib) in zip(lam_a, lam_b):
        assert abs(complex(ra, ia) - complex(rb, ib)) <= 1e-7 * (1 + abs(ra))


def test_reports_are_deterministic_apart_from_timings(tmp_path, capsys):
    path = write_tensor(tmp_path, random_tensor(2, 3, seed=5))
    _, out_a = run(capsys, ["eigen", "--input", path, "--seed", "3"])
    _, out_b = run(capsys, ["eigen", "--input", path, "--seed", "3"])
    doc_a, doc_b = json.loads(out_a), json.loads(out_b)
    doc_a.pop("timings")
    doc_b.pop("timings")
    assert doc_a == doc_b


def test_verify_deficient_tensor_exits_zero_with_certificate(tmp_path, capsys):
    path = write_tensor(tmp_path, tangent_tensor(2, 3, seed=1))
    code, out = run(capsys, ["verify", "--input", path])
    assert code == EXIT_OK
    o = report_outputs(out)
    assert o["verdict"] == "HYPOTHESIS_FAILED"
    assert o["certificate"] is not None
    assert float(o["certificate"]["residual"]) <= 1e-8


def test_verify_suite_passes_and_pins_constant(capsys):
    code, out = run(
        capsys, ["verify", "--suite", "1,3", "--samples", "3", "--seed", "2"]
    )
    assert code == EXIT_OK
    o = report_outputs(out)
    assert [v["verdict"] for v in o["verdicts"]] == ["PASS"] * 3
    assert o["constant_agrees"] is True
    assert o["invariants"]["eigen_count"] == 3


def test_verify_suite_survives_singular_gradient_minor(capsys):
    # one sample of this suite has a singular Macaulay minor in its gradient
    # system; gradient_resultant must shear around it like psi sampling does
    code, out = run(
        capsys, ["verify", "--suite", "2,3", "--samples", "4", "--seed", "2090200"]
    )
    assert code == EXIT_OK
    o = report_outputs(out)
    assert [v["verdict"] for v in o["verdicts"]] == ["PASS"] * 4
    assert o["constant_agrees"] is True


def test_verify_rejects_both_or_neither_inputs(tmp_path, capsys):
    code, _ = run(capsys, ["verify"])
    assert code == EXIT_USAGE
    path = write_tensor(tmp_path, random_tensor(1, 3, seed=0))
    code, _ = run(capsys, ["verify", "--input", path, "--suite", "1,3"])
    assert code == EXIT_USAGE
    code, _ = run(capsys, ["verify", "--suite", "13"])
    assert code == EXIT_USAGE


def test_verify_fail_verdict_exits_five(tmp_path, capsys, monkeypatch):
    import espectra.cli as cli_mod

    def fake_verify(f):
        return MainTheoremReport(verdict="FAIL", n=f.n, d=f.d, parity="odd")

    monkeypatch.setattr(cli_mod, "verify_main_theorem", fake_verify)
    path = write_tensor(tmp_path, random_tensor(1, 3, seed=0))
    code, out = run(capsys, ["verify", "--input", path])
    assert code == EXIT_VERIFY
    assert report_outputs(out)["verdict"] == "FAIL"


def test_generate_round_trips_and_is_deterministic(capsys):
    argv = ["generate", "--kind", "fermat", "--n", "2", "--d", "4", "--seed", "6"]
    code_a, out_a = run(capsys, argv)
    code_b, out_b = run(capsys, argv)
    assert code_a == code_b == EXIT_OK
    assert out_a == out_b
    f = tensor_from_json(json.loads(out_a))
    assert f.n == 2 and f.d == 4
    # diagonal: exactly three terms of full degree
    assert len(f.poly.terms) == 3


def test_generate_then_eigen_pipeline(tmp_path, capsys):
    code, out = run(
        capsys,
        ["generate", "--kind", "random", "--n", "1", "--d", "3", "--seed", "8"],
    )
    assert code == EXIT_OK
    path = tmp_path / "gen.json"
    path.write_text(out)
    code, out = run(capsys, ["eigen", "--input", str(path), "--method", "binary"])
    assert code == EXIT_OK
    assert report_outputs(out)["count"] == 3


def test_invariants_subcommand(capsys):
    code, out = run(capsys, ["invariants", "--n", "2", "--d", "3"])
    assert code == EXIT_OK
    o = report_outputs(out)
    assert (o["eigen_count"], o["phi"], o["delta0"]) == (7, 5, 10)
    assert o["alpha"] == o["beta"] == [-1, 2]


def test_usage_errors_exit_two(tmp_path, capsys):
    code, _ = run(capsys, ["echar", "--input", str(tmp_path / "missing.json")])
    assert code == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, ["echar", "--input", str(bad)])
    assert code == EXIT_USAGE
    code, _ = run(capsys, ["no-such-command"])
    assert code == EXIT_USAGE
    code, _ = run(capsys, ["generate", "--kind", "tangent", "--n", "3", "--d", "3"])
    assert code == EXIT_USAGE


def test_isotropic_binary_route_exits_four(tmp_path, capsys):
    path = write_tensor(tmp_path, tangent_tensor(1, 4, seed=7))
    code, _ = run(capsys, ["eigen", "--input", path, "--method", "binary"])
    assert code == EXIT_RECOVERY


def test_recovery_failures_exit_four(tmp_path, capsys):
    from espectra.poly_core import SymmetricTensor, quadric_form

    f = SymmetricTensor(quadric_form(3) * quadric_form(3), 4)
    path = write_tensor(tmp_path, f)
    code, out = run(capsys, ["eigen", "--input", path])
    assert code == EXIT_RECOVERY
    o = report_outputs(out)
    assert o["failures"][0]["kind"] == "IDENTICALLY_ZERO"


def test_oversized_system_exits_three(tmp_path, capsys):
    # a gradient eigen-system at degree 40 wants a Macaulay matrix far past
    # the size guardrail
    doc = {
        "n_vars": 4,
        "degree_bound": 100,
        "parity": "even",
        "forms": [
            {
                "terms": [
                    {"exp": exp, "lambda_deg": 0, "re": "1", "im": "0"},
                    {"exp": lam_exp, "lambda_deg": 1, "re": "-1", "im": "0"},
                ]
            }
            for exp, lam_exp in (
                ([40, 0, 0, 0], [1, 0, 0, 39]),
                ([0, 40, 0, 0], [0, 1, 0, 39]),
                ([0, 0, 40, 0], [0, 0, 1, 39]),
                ([0, 0, 0, 40], [0, 0, 0, 40]),
            )
        ],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, ["echar", "--input", str(path)])
    assert code == EXIT_RESULTANT


def test_input_digest_is_canonical(tmp_path, capsys):
    f = random_tensor(1, 3, seed=2)
    doc = tensor_to_json(f)
    first = tmp_path / "a.json"
    first.write_text(json.dumps(doc, sort_keys=True, indent=2))
    # same tensor: keys reversed, terms reversed, other whitespace, and one
    # coefficient respelled as an unreduced fraction
    terms = [dict(reversed(list(t.items()))) for t in reversed(doc["coeffs"])]
    num, den = Fraction(terms[0]["re"]).as_integer_ratio()
    terms[0]["re"] = f"{2 * num}/{2 * den}"
    second = tmp_path / "b.json"
    second.write_text(json.dumps({"coeffs": terms, "d": 3, "n": 1}, separators=(",", ":")))
    other = write_tensor(tmp_path, random_tensor(1, 3, seed=3), name="c.json")
    digests = []
    for path in (str(first), str(second), other):
        code, out = run(capsys, ["echar", "--input", path])
        assert code == EXIT_OK
        digests.append(RunReport.parse(out).input_digest)
    assert digests[0] == digests[1] != digests[2]
    code, out = run(capsys, ["eigen", "--input", str(second)])
    assert code == EXIT_OK
    assert RunReport.parse(out).input_digest == digests[0]


def test_system_file_digest_is_canonical(tmp_path, capsys):
    doc = json.loads(REFERENCE_SYSTEM.read_text())
    for form in doc["forms"]:
        form["terms"].reverse()
    shuffled = tmp_path / "system.json"
    shuffled.write_text(json.dumps(doc, indent=1))
    digests = []
    for path in (str(REFERENCE_SYSTEM), str(shuffled)):
        code, out = run(capsys, ["echar", "--input", path])
        assert code == EXIT_OK
        digests.append(RunReport.parse(out).input_digest)
    assert digests[0] == digests[1]


def test_echar_leaves_numpy_unloaded(tmp_path):
    path = write_tensor(tmp_path, random_tensor(1, 3, seed=4))
    script = (
        "import sys, espectra, espectra.cli\n"
        "before = 'numpy' in sys.modules\n"
        "code = espectra.cli.main(['echar', '--input', sys.argv[1]])\n"
        "print(before, 'numpy' in sys.modules, code)\n"
    )
    src = str(Path(espectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script, path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False 0"


def test_verify_suite_computes_psi_and_resultant_once_per_sample(capsys, monkeypatch):
    import espectra.invariants as inv

    counts = {"e_char_poly": 0, "gradient_resultant": 0}
    for name in counts:
        def counting(f, *rest, _real=getattr(inv, name), _name=name):
            counts[_name] += 1
            return _real(f, *rest)

        monkeypatch.setattr(inv, name, counting)
    code, out = run(capsys, ["verify", "--suite", "1,4", "--samples", "3", "--seed", "0"])
    assert code == EXIT_OK
    assert report_outputs(out)["constant_agrees"] is True
    assert counts == {"e_char_poly": 3, "gradient_resultant": 3}


def test_cli_e2e_script_passes(tmp_path):
    root = Path(__file__).resolve().parents[1]
    # the script's scratch files land under tmp_path, which pytest prunes
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "scripts/cli_e2e.py"],
        cwd=root, capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ALL CLI CHECKS PASSED" in proc.stdout
