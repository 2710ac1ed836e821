"""Output checks for every benchmark job.

A check returns ``None`` when the job's output is right, else a
``(kind, reason)`` pair.  Kinds:

* ``error``         -- unexpected exit code, exception, or malformed output;
* ``wrong``         -- an exact-arithmetic fact does not hold;
* ``float-unsound`` -- a float ``center-check`` verdict on a known center is
  ``weak-focus``, or ``center-generic`` where the exact verdict differs; that
  is, neither the exact verdict nor ``inconclusive``.  This is the open float zero-test defect (ROADMAP open
  item 2); it is counted as a failed job but does not make the run incorrect.

The expected facts are computed independently of the program's output: the
cubic L_1 closed form, the center-number bound formula, and the verdict of the
same file in exact mode (computed untimed, see run.py).
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath as mp

SCHEMA = "bautin-lab/1"
VERDICT_EXIT = {"center-generic": 0, "weak-focus": 5, "inconclusive": 6}
FLOAT_DPS = 60  # the CLI's default --precision, used by every float job

KNOWN_DEFECT = "float-unsound"


class CheckFailed(Exception):
    def __init__(self, kind: str, reason: str):
        super().__init__(reason)
        self.kind = kind
        self.reason = reason


def _require(cond: bool, kind: str, reason: str) -> None:
    if not cond:
        raise CheckFailed(kind, reason)


def _negligible_tol() -> mp.mpf:
    """The package's own float zero threshold, 10^(20 - dps)."""
    return mp.mpf(10) ** (20 - FLOAT_DPS)


def center_bound(n: int, homogeneous: bool) -> int:
    """n+2 for homogeneous fields, else (n^2+4n-4)/2 (even n) or
    (n^2+4n-5)/2 (odd n) -- the paper's formula, restated here so the check
    does not rely on the code under test."""
    if homogeneous:
        return n + 2
    return (n * n + 4 * n - (4 if n % 2 == 0 else 5)) // 2


def _check_lyapunov(job, out: dict) -> None:
    _require(out.get("command") == "lyapunov", "error", "not a lyapunov result")
    _require(out.get("mode") == job.mode, "error", f"mode {out.get('mode')!r}")
    L = out.get("L", {})
    _require(sorted(L, key=int) == [str(j) for j in range(1, len(L) + 1)] and len(L) > 0,
             "error", "L indices are not 1..J")
    expected = Fraction(job.expect["L1"])
    if job.mode == "exact":
        _require(Fraction(L["1"]) == expected, "wrong",
                 f"L_1 = {L['1']}, closed form gives {expected}")
    else:
        with mp.workdps(FLOAT_DPS + 10):
            got = mp.mpf(L["1"])
            want = mp.mpf(expected.numerator) / expected.denominator
            _require(abs(got - want) <= _negligible_tol() * max(1, abs(want)), "wrong",
                     f"L_1 = {L['1']}, closed form gives {expected}")


def _check_center(job, rc: int, out: dict, exact_verdict: str | None) -> None:
    _require(out.get("command") == "center-check", "error", "not a center-check result")
    verdict = out.get("verdict")
    _require(verdict in VERDICT_EXIT, "error", f"unknown verdict {verdict!r}")
    _require(rc == VERDICT_EXIT[verdict], "error", f"exit {rc} does not match verdict {verdict}")
    bound = center_bound(job.expect["degree"], job.expect["homogeneous"])
    _require(out.get("center_bound") == bound, "wrong",
             f"center bound {out.get('center_bound')}, expected {bound}")
    if job.mode == "exact":
        _require(verdict != "weak-focus", "wrong", "known center reported as weak-focus")
        det_zero = out.get("det_P") == "0"
        _require(det_zero == (verdict == "inconclusive"), "wrong",
                 f"verdict {verdict} with det_P = {out.get('det_P')}")
    else:
        _require(verdict != "weak-focus", KNOWN_DEFECT, "known center reported as weak-focus")
        if verdict == "center-generic":
            _require(exact_verdict == verdict, KNOWN_DEFECT,
                     f"float verdict {verdict}, exact verdict {exact_verdict}")


def _check_example_jl(job, out: dict) -> None:
    _require(out.get("root_index") == job.expect["root"], "error", "wrong root reported")
    _require(out.get("b4") == job.expect["b4"], "error", f"b4 {out.get('b4')!r}")
    with mp.workdps(FLOAT_DPS + 10):
        tol = _negligible_tol()
        L = {int(j): mp.mpf(v) for j, v in out["L"].items()}
        _require(sorted(L) == list(range(1, 9)), "error", "L_1..L_8 expected")
        _require(L[8] != 0, "wrong", "L_8 vanished")
        for j in range(1, 8):
            _require(abs(L[j]) <= tol * abs(L[8]), "wrong",
                     f"|L_{j}| = {mp.nstr(abs(L[j]), 5)} not negligible next to L_8")
        sc = out["scaling_check"]
        for key in ("l8_relative_deviation", "det_relative_deviation"):
            _require(mp.mpf(sc[key]) <= tol, "wrong", f"{key} = {sc[key]}")


def needs_exact_verdict(job, stdout: str) -> bool:
    """Only a float ``center-generic`` needs the exact verdict: ``inconclusive``
    is always acceptable and ``weak-focus`` is never right for a known center."""
    if job.command != "center-check" or job.mode != "float":
        return False
    try:
        return json.loads(stdout).get("verdict") == "center-generic"
    except (json.JSONDecodeError, AttributeError):
        return False


def check_job(job, rc: int | None, stdout: str, exact_verdict: str | None = None):
    """``None`` when the job's output passes, else ``(kind, reason)``."""
    try:
        _require(rc is not None, "error", "raised an exception")
        if job.command != "center-check":
            _require(rc == 0, "error", f"exit code {rc}")
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            raise CheckFailed("error", "stdout is not JSON") from None
        _require(out.get("schema") == SCHEMA, "error", f"schema {out.get('schema')!r}")
        if job.command == "lyapunov":
            _check_lyapunov(job, out)
        elif job.command == "center-check":
            _check_center(job, rc, out, exact_verdict)
        else:
            _check_example_jl(job, out)
    except CheckFailed as exc:
        return exc.kind, exc.reason
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return "error", f"malformed output: {exc!r}"
    return None
