"""Command-line front end.

Subcommands:
    lyapunov      compute L_1..L_J for a field
    gaps          predicted vs observed sparsity pattern (homogeneous fields)
    center-check  weak-focus / center certificate
    example-jl    reproduce the eight-cycle cubic family report

Exit codes: 0 success (or certified center), 1 bad input, 3 internal solver
error, 4 gap mismatch, 5 weak focus, 6 inconclusive (the center-check
verdict codes come from ``CenterCertificate.exit_code``).  Results go to
stdout, diagnostics to stderr.  JSON output carries a top-level
``"schema": "bautin-lab/1"`` key and renders every number as an exact string
('p/q' or a full-precision decimal), never a binary float.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from .engine import compute_series
from .errors import SolverInternalError, UsageError
from .fields import (
    VectorField,
    coerce_field,
    parse_vector_field,
    random_field,
    random_homogeneous_field,
)
from .hpoly import terms_str
from .scalars import RATIONAL, BigRealDomain, Domain, parse_rational, scalar_to_str
from .structure import center_check, check_declared_degree, gap_profile, verify_gaps

SCHEMA = "bautin-lab/1"

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INTERNAL = 3
EXIT_GAP_MISMATCH = 4


def _domain(args: argparse.Namespace) -> Domain:
    """The coefficient domain --mode and --precision select; --precision
    (default 60 digits) belongs to float mode only."""
    if args.mode == "float":
        return BigRealDomain(dps=60 if args.precision is None else args.precision)
    if args.precision is not None:
        raise UsageError("--precision applies only to --mode float")
    return RATIONAL


def _load_field(args: argparse.Namespace, domain: Domain) -> VectorField:
    """Read a field from a file, '-' for stdin, or 'random:<n>' /
    'random-homogeneous:<n>' seeded by --seed (default 0), in ``domain``."""
    src = args.source
    if src.startswith(("random:", "random-homogeneous:")):
        kind, _, degree = src.partition(":")
        try:
            n = int(degree)
        except ValueError:
            raise UsageError(f"not a field degree: {src!r}") from None
        make = random_field if kind == "random" else random_homogeneous_field
        return coerce_field(make(n, args.seed or 0), domain)
    if args.seed is not None:
        raise UsageError("--seed applies only to random:<n> sources")
    try:
        if src == "-":
            text = sys.stdin.read()
        else:
            with open(src, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{src}: not UTF-8 text ({exc.reason})") from None
    return parse_vector_field(text, domain)


def _emit_pairs(output: str, pairs: list[tuple[str, str]], payload: dict) -> None:
    if output == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, indent=2))
    elif output == "csv":
        import csv  # only CSV output loads the module (about 130 KB of RSS)

        rows = csv.writer(sys.stdout, lineterminator="\n")
        rows.writerow(("key", "value"))
        rows.writerows(pairs)
    else:
        for key, val in pairs:
            print(f"{key} = {val}")


def cmd_lyapunov(args: argparse.Namespace) -> int:
    vf = _load_field(args, _domain(args))
    series = compute_series(vf, args.max_index)
    dom = vf.domain
    L = {str(j): scalar_to_str(value, dom) for j, value in series.l_values()}
    pairs = [(f"L_{j}", text) for j, text in L.items()]
    payload: dict = {"command": "lyapunov", "degree": vf.degree, "mode": args.mode, "L": L}
    if args.show_terms:
        V = {
            k: [(i, j, scalar_to_str(c, dom)) for i, j, c in series.V[k].terms()]
            for k in sorted(series.V)
        }
        payload["V"] = {str(k): {f"{i},{j}": text for i, j, text in t} for k, t in V.items()}
        pairs += [(f"V_{k}", terms_str(t)) for k, t in V.items() if k > 2]
    _emit_pairs(args.output, pairs, payload)
    return EXIT_OK


def cmd_gaps(args: argparse.Namespace) -> int:
    vf = _load_field(args, RATIONAL)  # gap verification needs exact arithmetic
    check_declared_degree(vf)  # the audit range below grows with n
    if not vf.is_homogeneous():
        raise UsageError("gap analysis requires a homogeneous field")
    J = 2 * (vf.degree + 2) if args.max_index is None else args.max_index  # the audit range
    series = compute_series(vf, J)
    report = verify_gaps(series)
    profile = gap_profile(vf.degree)
    observed_l = [j for j, L in series.l_values() if L != 0]
    observed_v = [k for k in sorted(series.V) if k > 2 and not series.V[k].is_zero()]
    pairs = [
        ("degree", str(vf.degree)),
        ("predicted_first_nonzero", f"L_{profile.first_nonzero_index}"),
        ("predicted_L_indices", str(profile.l_indices_upto(J))),
        ("observed_L_indices", str(observed_l)),
        ("predicted_V_degrees", str(profile.v_degrees_upto(series.max_degree))),
        ("observed_V_degrees", str(observed_v)),
        ("match", str(report.passed)),
    ]
    if report.note:
        pairs.append(("note", report.note))
    payload = {
        "command": "gaps",
        "degree": vf.degree,
        "predicted_first_nonzero": profile.first_nonzero_index,
        "predicted_L_indices": profile.l_indices_upto(J),
        "observed_L_indices": observed_l,
        "predicted_V_degrees": profile.v_degrees_upto(series.max_degree),
        "observed_V_degrees": observed_v,
        "match": report.passed,
        "note": report.note,
        "violations": [
            {"kind": v.kind, "key": v.key, "value": v.value} for v in report.violations
        ],
    }
    _emit_pairs(args.output, pairs, payload)
    return EXIT_OK if report.passed else EXIT_GAP_MISMATCH


def cmd_center_check(args: argparse.Namespace) -> int:
    dom = _domain(args)
    vf = _load_field(args, RATIONAL)
    cert = center_check(vf, dom)
    pairs = [
        ("verdict", cert.verdict),
        ("center_bound", str(cert.center_bound)),
    ]
    first = det = None
    if cert.first_nonzero:
        j, val = cert.first_nonzero
        first = {"index": j, "value": scalar_to_str(val, dom)}
        pairs += [("weak_focus_order", str(cert.weak_focus_order)), (f"L_{j}", first["value"])]
    if cert.det_p is not None:
        det = scalar_to_str(cert.det_p, dom)
        pairs.append(("det_P", det))
    if cert.reason:
        pairs.append(("reason", cert.reason))
    payload = {
        "command": "center-check",
        "verdict": cert.verdict,
        "center_bound": cert.center_bound,
        "weak_focus_order": cert.weak_focus_order,
        "first_nonzero": first,
        "det_P": det,
        "ordering": "cyclicity <= weak-focus order <= center bound",
        "reason": cert.reason,
    }
    _emit_pairs(args.output, pairs, payload)
    return cert.exit_code


def cmd_example_jl(args: argparse.Namespace) -> int:
    from .cubic_family import reproduce_example  # exact commands never load it

    b4 = parse_rational(args.b4)
    if b4 >= 0:
        raise UsageError("--b4 must be negative")
    roots = [args.root] if args.root else [1, 2]
    reports = [reproduce_example(root=r, b4=b4, precision=args.precision) for r in roots]
    if args.output != "table":
        pairs = []
        for rep in reports:
            r = rep["root_index"]
            pairs.append((f"sigma_{r}", rep["sigma"]))
            pairs += [(f"L_{j}_root{r}", text) for j, text in rep["L"].items()]
            pairs += [
                (f"{key}_root{r}", rep[key]) for key in ("L8_over_b4_8", "detP", "detP_over_b4_30")
            ]
        _emit_pairs(args.output, pairs, reports[0] if len(reports) == 1 else {"roots": reports})
        return EXIT_OK
    for rep in reports:
        print(f"root {rep['root_index']}: sigma = {rep['sigma']}")
        for j in range(1, 9):
            print(f"  L_{j} = {rep['L'][str(j)]}")
        print(f"  L_8 / b4^8   = {rep['L8_over_b4_8']}")
        print(f"  det P        = {rep['detP']}")
        print(f"  det P / b4^30 = {rep['detP_over_b4_30']}")
        sc = rep["scaling_check"]
        print(
            f"  scaling check at b4 = {sc['second_b4']}: "
            f"L_8 exponent {sc['l8_exponent']} (rel dev {sc['l8_relative_deviation']}), "
            f"det exponent {sc['det_exponent']} (rel dev {sc['det_relative_deviation']})"
        )
    return EXIT_OK


@cache  # built once per process (about 1 ms each): parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bautin-lab",
        description="Lyapunov constants and center certificates for planar "
        "polynomial vector fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, modes: bool = True):
        p.add_argument("source", help="field file, '-' for stdin, or random:<n> / random-homogeneous:<n>")
        if modes:
            p.add_argument("--mode", choices=("exact", "float"), default="exact")
            p.add_argument("--precision", type=int, help="decimal digits in float mode (default 60)")
        p.add_argument("--output", choices=("table", "json", "csv"), default="table")
        p.add_argument("--seed", type=int, help="seed for random:<n> inputs (default 0)")

    p = sub.add_parser("lyapunov", help="compute Lyapunov constants")
    common(p)
    p.add_argument("-J", "--max-index", type=int, default=8, help="highest Lyapunov index")
    p.add_argument("--show-terms", action="store_true", help="also print the V_k terms")

    p = sub.add_parser("gaps", help="verify the homogeneous sparsity pattern")
    common(p, modes=False)
    p.add_argument("-J", "--max-index", type=int, help="highest Lyapunov index (default 2(n + 2))")

    p = sub.add_parser("center-check", help="weak-focus / center certificate")
    common(p)

    p = sub.add_parser("example-jl", help="eight-cycle cubic family report")
    p.add_argument("--root", type=int, choices=(1, 2), default=None, help="which admissible root (default: both)")
    p.add_argument("--b4", default="-1", help="negative rational value of b4")
    p.add_argument("--precision", type=int, default=60)
    p.add_argument("--output", choices=("table", "json", "csv"), default="table")
    return parser


def _attach_negative_b4(argv: list[str]) -> list[str]:
    """argv with "--b4 -1/2" (or its abbreviation "--b -1/2") written
    "--b4=-1/2": argparse reads a separate value that starts with "-" as an
    option unless it is a plain decimal ("-1", "-0.5"), and no option starts
    with "-" then a digit or "."."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--b", "--b4") and re.match(r"-\.?\d", arg):
            out[-1] = f"--b4={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_attach_negative_b4(sys.argv[1:] if argv is None else argv))
    handlers = {
        "lyapunov": cmd_lyapunov,
        "gaps": cmd_gaps,
        "center-check": cmd_center_check,
        "example-jl": cmd_example_jl,
    }
    try:
        return handlers[args.command](args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SolverInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        # any other failure is a defect of the program, not of its input
        import traceback  # loaded by this branch only
        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
