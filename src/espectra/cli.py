"""Command-line front end.

Subcommands:

  echar       exact E-characteristic polynomial of a tensor, or of a
              committed lambda-linear system file (detected by a "forms"
              key), with degree and deficiency report
  eigen       eigenpair table by the charpoly, binary, or fermat route
  verify      product-of-eigenvalues identity on one tensor, or a random
              suite at fixed (n, d) with the cross-sample constant check
  generate    random / fermat / tangent test tensors as JSON on stdout
  invariants  exact combinatorial invariants at (n, d)

Reports are JSON with sorted keys: exact scalars appear as {"re", "im"}
fraction strings, floating point numbers as 17-significant-digit strings,
so identical inputs and seeds produce byte-identical output apart from the
"timings" block.  Exit codes: 0 success (including a HYPOTHESIS_FAILED
verdict with certificate), 2 usage or input error, 3 resultant failure,
4 eigenvector recovery failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

from .echar import e_char_poly, generic_eigen_count
from .generators import (
    fermat_spec,
    fermat_tensor,
    random_fermat_coeffs,
    random_tensor,
    tangent_tensor,
)
from .invariants import (
    RatioMismatchError,
    TensorAnalysis,
    constant_term_ratio,
    invariant_report,
    verify_main_theorem,
)
from .poly_core import (
    GaussianRational,
    MultiPoly,
    SymmetricTensor,
    UniPoly,
    scalar_from_json,
    scalar_to_json,
    tensor_from_json,
    tensor_to_json,
)
from .resultant_engine import ParametricSystem, ResultantError, parametric_resultant
from .spectra import (
    IsotropicRootError,
    SpectrumResult,
    ZeroCoefficientError,
    binary_eigenpairs,
    eigenpairs_from_charpoly,
    fermat_eigenpairs,
    product_of_eigenvalues,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESULTANT = 3
EXIT_RECOVERY = 4
EXIT_VERIFY = 5


def _fmt_float(v: float) -> str:
    return format(float(v), ".17g")


def _fmt_complex(z: complex) -> dict:
    return {"re": _fmt_float(z.real), "im": _fmt_float(z.imag)}


@dataclass
class RunReport:
    """Machine-readable result of one command invocation."""

    command: list[str]
    input_digest: str
    outputs: dict
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "input_digest": self.input_digest,
            "outputs": self.outputs,
            "timings": self.timings,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    @staticmethod
    def parse(text: str) -> "RunReport":
        doc = json.loads(text)
        return RunReport(
            command=doc["command"],
            input_digest=doc["input_digest"],
            outputs=doc["outputs"],
            timings=doc.get("timings", {}),
        )


def _digest_json(doc: dict) -> str:
    """Digest of a canonical JSON document: key order and whitespace fixed."""
    return _digest_text(json.dumps(doc, sort_keys=True))


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def system_from_json(doc: dict) -> tuple[ParametricSystem, dict]:
    """Parse a lambda-linear homogeneous system file.

    Layout: {"n_vars": 4, "degree_bound": 14, "parity": "odd", "forms":
    [{"terms": [{"exp": [..], "lambda_deg": 0, "re": "..", "im": ".."}]}]}
    where lambda_deg 0 terms form the constant part and lambda_deg 1 terms
    the part multiplied by the parameter.
    """
    n_vars = int(doc["n_vars"])
    bound = int(doc["degree_bound"])
    const = []
    linear = []
    for form in doc["forms"]:
        cterms: dict = {}
        lterms: dict = {}
        for term in form["terms"]:
            exp = tuple(int(e) for e in term["exp"])
            target = cterms if int(term.get("lambda_deg", 0)) == 0 else lterms
            target[exp] = scalar_from_json(term)
        const.append(MultiPoly(n_vars, cterms))
        linear.append(MultiPoly(n_vars, lterms))
    meta = {"degree_bound": bound, "parity": doc.get("parity")}
    return ParametricSystem(const_part=const, linear_part=linear), meta


def system_to_json(system: ParametricSystem, meta: dict) -> dict:
    """Inverse of system_from_json, with each form's terms in canonical order."""
    forms = []
    for const, linear in zip(system.const_part, system.linear_part):
        terms = [
            {"exp": list(e), "lambda_deg": k, **scalar_to_json(c)}
            for k, part in ((0, const), (1, linear))
            for e, c in part.sorted_terms()
        ]
        forms.append({"terms": terms})
    return {
        "n_vars": system.const_part[0].n_vars,
        "degree_bound": meta["degree_bound"],
        "parity": meta["parity"],
        "forms": forms,
    }


def _psi_fields(psi: UniPoly) -> dict:
    prim, content = psi.primitive_part()
    return {
        "psi_coeffs": [scalar_to_json(c) for c in psi.coeffs],
        "psi_primitive": [scalar_to_json(c) for c in prim.coeffs],
        "psi_content": str(content),
        "degree": psi.degree,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_echar(args) -> tuple[str, dict, int]:
    doc = _load_json(args.input)
    if "forms" in doc:
        system, meta = system_from_json(doc)
        psi = parametric_resultant(system, meta["degree_bound"])
        outputs = {
            "kind": "system",
            "n_vars": system.const_part[0].n_vars,
            "expected_degree": meta["degree_bound"],
            "parity": meta["parity"],
            "deficient": psi.degree < meta["degree_bound"],
            "identically_zero": psi.is_zero(),
            **_psi_fields(psi),
        }
        return _digest_json(system_to_json(system, meta)), outputs, EXIT_OK
    f = tensor_from_json(doc)
    ec = e_char_poly(f)
    outputs = {
        "kind": "tensor",
        "n": ec.n,
        "d": ec.d,
        "parity": ec.parity,
        "expected_degree": ec.n_expected,
        "eigen_count": ec.eigen_count,
        "deficient": ec.deficient,
        "identically_zero": ec.identically_zero,
        **_psi_fields(ec.psi),
    }
    return _digest_json(tensor_to_json(f)), outputs, EXIT_OK


def _diagonal_coeffs(f: SymmetricTensor) -> list[GaussianRational]:
    m = f.n_vars
    out = [GaussianRational() for _ in range(m)]
    for exp, c in f.poly.terms.items():
        hot = [i for i, e in enumerate(exp) if e]
        if len(hot) != 1 or exp[hot[0]] != f.d:
            raise ValueError("fermat method needs a diagonal tensor")
        out[hot[0]] = c
    return out


def _cmd_eigen(args) -> tuple[str, dict, int]:
    doc = _load_json(args.input)
    if "forms" in doc:
        raise ValueError("eigen expects a tensor file, not a system file")
    f = tensor_from_json(doc)
    parity = "even" if f.d % 2 == 0 else "odd"
    method = args.method
    warnings: list[str] = []
    deficient = None
    if method == "binary":
        if f.n != 1:
            raise ValueError("binary method needs n = 1")
        result = SpectrumResult(pairs=binary_eigenpairs(f))
    elif method == "fermat":
        spec = fermat_spec(_diagonal_coeffs(f), f.d)
        result = fermat_eigenpairs(spec)
    else:
        ec = e_char_poly(f)
        deficient = ec.deficient
        if ec.deficient:
            warnings.append(
                "characteristic polynomial degree dropped below the generic"
                " value; an isotropic eigenvector escapes this table"
            )
        result = eigenpairs_from_charpoly(f, ec, seed=args.seed)
    pairs = sorted(
        result.pairs,
        key=lambda p: (
            round(abs(p.lam), 9),
            round(p.lam.real, 9),
            round(p.lam.imag, 9),
            tuple((round(c.real, 9), round(c.imag, 9)) for c in p.x),
        ),
    )
    outputs = {
        "method": method,
        "n": f.n,
        "d": f.d,
        "parity": parity,
        "eigen_count_expected": generic_eigen_count(f.n, f.d),
        "count": len(pairs),
        "deficient": deficient,
        "warnings": warnings,
        "pairs": [
            {
                "lam": _fmt_complex(p.lam),
                "x": [_fmt_complex(c) for c in p.x],
                "residual": _fmt_float(p.residual),
            }
            for p in pairs
        ],
        "failures": [{"kind": fl.kind, "detail": fl.detail} for fl in result.failures],
        "product": _fmt_complex(product_of_eigenvalues(pairs)),
    }
    code = EXIT_RECOVERY if result.failures else EXIT_OK
    return _digest_json(tensor_to_json(f)), outputs, code


def _certificate_json(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "x": [_fmt_complex(c) for c in cert.x],
        "lam": _fmt_complex(cert.lam),
        "residual": _fmt_float(cert.residual),
    }


def _verify_outputs(report) -> dict:
    return {
        "verdict": report.verdict,
        "n": report.n,
        "d": report.d,
        "parity": report.parity,
        "vieta_abs": None if report.vieta_abs is None else _fmt_float(report.vieta_abs),
        "res_abs": None if report.res_abs is None else _fmt_float(report.res_abs),
        "disc_abs": None if report.disc_abs is None else _fmt_float(report.disc_abs),
        "rel_error": None if report.rel_error is None else _fmt_float(report.rel_error),
        "constant": None if report.constant is None else scalar_to_json(report.constant),
        "observed_sign": report.observed_sign,
        "certificate": _certificate_json(report.certificate),
        "detail": report.detail,
    }


def _cmd_verify(args) -> tuple[str, dict, int]:
    if (args.input is None) == (args.suite is None):
        raise ValueError("verify needs exactly one of --input or --suite")
    if args.input is not None:
        f = tensor_from_json(_load_json(args.input))
        report = verify_main_theorem(f)
        code = EXIT_VERIFY if report.verdict == "FAIL" else EXIT_OK
        return _digest_json(tensor_to_json(f)), _verify_outputs(report), code
    try:
        n_str, d_str = args.suite.split(",")
        n, d = int(n_str), int(d_str)
    except ValueError as exc:
        raise ValueError(f"--suite expects 'n,d', got {args.suite!r}") from exc
    digest = _digest_text(f"suite:{n},{d}:{args.samples}:{args.seed}")
    # one analysis per sample: the verdicts and the constant check share
    # each sample's psi and gradient resultant
    samples = [
        TensorAnalysis(random_tensor(n, d, seed=args.seed + 1000 * k))
        for k in range(args.samples)
    ]
    verdicts = [_verify_outputs(verify_main_theorem(a)) for a in samples]
    ratio_doc: dict = {}
    code = EXIT_VERIFY if any(v["verdict"] == "FAIL" for v in verdicts) else EXIT_OK
    if len(samples) >= 2:
        try:
            ratio = constant_term_ratio(samples)
            ratio_doc = {"constant": scalar_to_json(ratio), "constant_agrees": True}
        except RatioMismatchError as exc:
            ratio_doc = {
                "constant": None,
                "constant_agrees": False,
                "mismatch": str(exc),
            }
            code = EXIT_VERIFY
    inv = invariant_report(n, d)
    outputs = {
        "suite": [n, d],
        "samples": args.samples,
        "seed": args.seed,
        "verdicts": verdicts,
        **ratio_doc,
        "invariants": {
            "eigen_count": inv.eigen_count,
            "phi": inv.phi,
            "delta0": inv.delta0,
            "alpha": list(inv.alpha),
            "beta": list(inv.beta),
        },
    }
    return digest, outputs, code


def _cmd_generate(args) -> tuple[str, dict, int]:
    if args.kind == "random":
        f = random_tensor(args.n, args.d, seed=args.seed, bound=args.bound)
    elif args.kind == "fermat":
        f = fermat_tensor(random_fermat_coeffs(args.n, args.d, args.seed, args.bound), args.d)
    else:
        f = tangent_tensor(args.n, args.d, seed=args.seed, bound=args.bound)
    doc = tensor_to_json(f)
    text = json.dumps(doc, sort_keys=True, indent=2)
    print(text)
    return _digest_text(text), {}, EXIT_OK


def _cmd_invariants(args) -> tuple[str, dict, int]:
    inv = invariant_report(args.n, args.d)
    outputs = {
        "n": inv.n,
        "d": inv.d,
        "eigen_count": inv.eigen_count,
        "phi": inv.phi,
        "delta0": inv.delta0,
        "alpha": list(inv.alpha),
        "beta": list(inv.beta),
    }
    return _digest_text(f"invariants:{args.n},{args.d}"), outputs, EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="espectra",
        description="exact E-characteristic polynomials and eigenpairs of"
        " symmetric tensors",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("echar", help="characteristic polynomial of a tensor or system file")
    p.add_argument("--input", required=True, help="tensor or system JSON file")
    p.set_defaults(func=_cmd_echar, emits_report=True)

    p = sub.add_parser("eigen", help="eigenpair table")
    p.add_argument("--input", required=True, help="tensor JSON file")
    p.add_argument(
        "--method",
        choices=("charpoly", "binary", "fermat"),
        default="charpoly",
    )
    p.add_argument("--seed", type=int, default=0, help="root-finding seed")
    p.set_defaults(func=_cmd_eigen, emits_report=True)

    p = sub.add_parser("verify", help="product-of-eigenvalues identity")
    p.add_argument("--input", help="tensor JSON file")
    p.add_argument("--suite", help="shape 'n,d' for a random suite")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify, emits_report=True)

    p = sub.add_parser("generate", help="write a test tensor JSON to stdout")
    p.add_argument("--kind", choices=("random", "fermat", "tangent"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=9)
    p.set_defaults(func=_cmd_generate, emits_report=False)

    p = sub.add_parser("invariants", help="combinatorial invariants at (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_invariants, emits_report=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        digest, outputs, code = args.func(args)
    except ResultantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESULTANT
    except (IsotropicRootError, ZeroCoefficientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RECOVERY
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.emits_report:
        report = RunReport(
            command=["espectra"] + argv,
            input_digest=digest,
            outputs=outputs,
            timings={"seconds": round(time.perf_counter() - started, 6)},
        )
        print(report.to_json())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
