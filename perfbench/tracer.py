"""Outside-in tracing of bautin_lab.

The package is not edited: ``Tracer`` replaces selected public functions (and
``HomogPoly.__mul__``) with wrappers that record a span per call -- name,
start, end, parent span and job -- plus a few counts taken at the same
boundary.  Because modules import these functions by name, every module
attribute that refers to an original is swapped, and restored on exit.

Counts are taken after the span closes, so they add to the tracing overhead
but not to any layer's busy time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from bautin_lab.scalars import LinearForm

#: (module, function) pairs wrapped; the span name is "<module>.<function>".
FUNCTIONS = (
    ("cli", "main"),
    ("fields", "parse_vector_field"),
    ("scalars", "scalar_to_str"),
    ("scalars", "scalar_is_zero"),
    ("engine", "compute_series"),
    ("engine", "extend_series"),
    ("engine", "compute_series_unknown"),
    ("engine", "accumulate_rhs"),
    ("engine", "rotational_solve"),
    ("structure", "center_check"),
    ("structure", "build_p_matrix"),
    ("structure", "det_exact"),
    ("cubic_family", "reproduce_example"),
    ("cubic_family", "find_sigma_roots"),
    ("cubic_family", "substitution_chain"),
)
MUL_SPAN = "hpoly.mul"
SERIES_BUILDERS = {"engine.compute_series", "engine.extend_series", "engine.compute_series_unknown"}


def _bits(x) -> int | None:
    """Numerator-plus-denominator bit length of an exact coefficient (the
    largest over a linear form's parts); None for inexact carriers."""
    if isinstance(x, int):
        return x.bit_length() + 1
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    if isinstance(x, LinearForm):
        parts = [_bits(x.const)] + [_bits(c) for c in x.coeffs.values()]
        return max((b for b in parts if b is not None), default=None)
    return None


def _nonzero_slots(p) -> int:
    """Coefficients HomogPoly.__mul__ does not skip (it skips only int 0)."""
    return sum(1 for c in p.coeffs if not (isinstance(c, int) and c == 0))


class Tracer:
    """Context manager: wraps the package while active.  It may be entered
    repeatedly; spans and counts accumulate across entries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.job: int | None = None
        self.coeff_products = 0
        self.det_size_max = 0
        self.v_bits: dict[int, int] = {}  # degree k -> max bits over V_k
        self.l_bits: dict[int, int] = {}  # index j -> max bits of L_j
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        from bautin_lab.hpoly import HomogPoly

        package = [m for name, m in sys.modules.items()
                   if name == "bautin_lab" or name.startswith("bautin_lab.")]
        for modname, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(f"bautin_lab.{modname}"), attr)
            wrapped = self._wrap(f"{modname}.{attr}", orig)
            for mod in package:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        orig_mul = HomogPoly.__mul__
        self._undo.append((HomogPoly, "__mul__", orig_mul))
        HomogPoly.__mul__ = self._wrap(MUL_SPAN, orig_mul)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        if name == MUL_SPAN:
            self.coeff_products += _nonzero_slots(args[0]) * _nonzero_slots(args[1])
        elif name == "structure.det_exact":
            self.det_size_max = max(self.det_size_max, len(args[0]))
        elif name in SERIES_BUILDERS and result.domain.exact:
            for k, poly in result.V.items():
                b = max((x for x in map(_bits, poly.coeffs) if x is not None), default=0)
                self.v_bits[k] = max(self.v_bits.get(k, 0), b)
            for j, val in result.L.items():
                self.l_bits[j] = max(self.l_bits.get(j, 0), _bits(val) or 0)

    # -- aggregation -------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost calls only, so recursion
        is not counted twice) and self_s (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                agg["busy_s"] += t1 - t0
        return dict(out)

    def coeff_bits_max(self) -> int:
        return max([*self.v_bits.values(), *self.l_bits.values()], default=0)

    def dump(self) -> dict:
        """Spans relative to the first span's start, for the result file."""
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"id": i, "name": n, "start": t0 - base, "end": t1 - base,
                 "parent": p, "job": job}
                for i, (n, t0, t1, p, job) in enumerate(self.spans)
            ],
            "coeff_bits": {
                "V": {str(k): b for k, b in sorted(self.v_bits.items())},
                "L": {str(j): b for j, b in sorted(self.l_bits.items())},
            },
        }
