"""Outside-in tracing of espectra's layers.

The tracer replaces functions that the layer modules expose with timing
wrappers, in every espectra module that holds a reference to them (so
`e_char_poly` is traced whether `cli` or `invariants` calls it), and puts the
originals back on exit.  Spans live in memory: name, start, end, parent span
and job.  A span's self time is its duration minus the time of its child
spans.

`MultiPoly.evaluate` runs hundreds of thousands of times per pass, so it is a
leaf probe: it adds to its totals and to its parent's child time but keeps no
span of its own.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None at the top
    job: str
    self_s: float


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


# (module, attribute path, span name, leaf).  Names missing at the parent of
# a later change are skipped and reported, so the trace keeps running when a
# layer is restructured.
TARGETS = [
    ("espectra.cli", "main", "cli.main", False),
    ("espectra.cli", "tensor_from_json", "poly_core.tensor_from_json", False),
    ("espectra.cli", "random_tensor", "generators.random_tensor", False),
    ("espectra.echar", "e_char_poly", "echar.e_char_poly", False),
    ("espectra.resultant_engine", "parametric_resultant", "resultant.parametric", False),
    ("espectra.resultant_engine", "macaulay_resultant", "resultant.macaulay", False),
    ("espectra.resultant_engine", "_perturbed_quotient_value", "resultant.perturbed", False),
    ("espectra.resultant_engine", "exact_determinant", "resultant.det", False),
    ("espectra.resultant_engine", "MacaulaySystem.numerator_matrix", "resultant.matrix_build", False),
    ("espectra.resultant_engine", "MacaulaySystem.denominator_matrix", "resultant.matrix_build", False),
    ("espectra.poly_core", "UniPoly.interpolate", "poly_core.interpolate", False),
    ("espectra.poly_core", "UniPoly.squarefree_decomposition", "poly_core.squarefree", False),
    ("espectra.poly_core", "MultiPoly.evaluate", "poly_core.evaluate", True),
    ("espectra.spectra", "eigenpairs_from_charpoly", "spectra.recover", False),
    ("espectra.spectra", "aberth_roots", "spectra.aberth", False),
    ("espectra.spectra", "_gauss_newton_solve", "spectra.gn", False),
    ("espectra.invariants", "verify_main_theorem", "invariants.verify_main_theorem", False),
    ("espectra.invariants", "constant_term_ratio", "invariants.constant_term_ratio", False),
    ("espectra.invariants", "invariant_report", "invariants.invariant_report", False),
    ("espectra.invariants", "gradient_resultant", "invariants.grad_resultant", False),
    ("espectra.invariants", "ternary_q_discriminant_proxy", "invariants.proxy", False),
]


def _bits(value) -> int:
    """Largest numerator or denominator bit length of a Gaussian rational."""
    return max(
        max(abs(part.numerator).bit_length(), part.denominator.bit_length())
        for part in (value.re, value.im)
    )


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, int] = defaultdict(int)
        self.tensors: set = set()
        self.job = ""
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, child_s, parent index]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_name, path, name, leaf in TARGETS:
            self._install(module_name, path, name, leaf)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _install(self, module_name: str, path: str, name: str, leaf: bool) -> None:
        owner = sys.modules.get(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None:
            self.missing.append(f"{module_name}.{path}")
            return
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = self._leaf(fn, name) if leaf else self._span(fn, name)
        if isinstance(owner, type):
            new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        # a module-level function: rebind it wherever espectra imported it
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("espectra") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapped)

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name: str):
        tracer = self
        stack = self._stack
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [name, perf_counter(), 0.0, len(tracer.spans)]
            tracer.spans.append(None)  # reserve the index so children can point at it
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                stat = tracer.stats[name]
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[2]
                tracer.spans[frame[3]] = Span(
                    name, frame[1], end, parent[3] if parent else None,
                    tracer.job, duration - frame[2],
                )
                if after is not None:
                    after(args, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn, name: str):
        stat = self.stats[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration
                if stack:
                    stack[-1][2] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters recorded at the layer boundaries --------------------------

    def _after_resultant_det(self, args, result, error) -> None:
        size = len(args[0])
        self.counters["det_cells"] += size * size
        self.counters["det_max_size"] = max(self.counters["det_max_size"], size)
        if result is not None:
            self.counters["det_max_bits"] = max(self.counters["det_max_bits"], _bits(result))

    def _after_resultant_macaulay(self, args, result, error) -> None:
        if error is not None and type(error).__name__ == "DenominatorSingularError":
            self.counters["singular_minors"] += 1
        if any(frame[0] == "resultant.parametric" for frame in self._stack):
            self.counters["psi_quotients"] += 1

    def _after_echar_e_char_poly(self, args, result, error) -> None:
        f = args[0]
        self.tensors.add((f.d, f.poly))

    def _after_spectra_recover(self, args, result, error) -> None:
        if result is not None:
            self.counters["recovered_pairs"] += len(result.pairs)

    # -- results -------------------------------------------------------------

    def total(self, name: str) -> float:
        return self.stats[name].total_s if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def self_time(self, name: str) -> float:
        return self.stats[name].self_s if name in self.stats else 0.0
