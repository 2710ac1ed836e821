"""Command-line front end.

Subcommands:
    lyapunov      compute L_1..L_J for a field
    gaps          predicted vs observed sparsity pattern (homogeneous fields)
    center-check  weak-focus / center certificate
    example-jl    reproduce the eight-cycle cubic family report

Exit codes: 0 success (or certified center), 1 bad input, 3 internal solver
or precision failure, 4 gap mismatch, 5 weak focus, 6 inconclusive.
Results go to stdout, diagnostics to stderr.  JSON output carries a top-level
``"schema": "bautin-lab/1"`` key and renders every number as an exact string
('p/q' or a full-precision decimal), never a binary float.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .cubic_family import reproduce_example
from .engine import compute_series
from .errors import SolverInternalError, UsageError
from .fields import (
    VectorField,
    coerce_field,
    parse_vector_field,
    random_field,
    random_homogeneous_field,
)
from .scalars import RATIONAL, BigRealDomain, Domain, parse_rational, scalar_to_str
from .structure import center_check, gap_profile, verify_gaps

SCHEMA = "bautin-lab/1"

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INTERNAL = 3
EXIT_GAP_MISMATCH = 4
EXIT_WEAK_FOCUS = 5
EXIT_INCONCLUSIVE = 6


@dataclass
class RunConfig:
    command: str
    source: str | None = None
    max_index: int = 8
    mode: str = "exact"  # "exact" | "float"
    precision: int = 60
    output: str = "table"  # "table" | "json" | "csv"
    seed: int = 0
    show_terms: bool = False
    root: int | None = None
    b4: str = "-1"

    @property
    def domain(self) -> Domain:
        return RATIONAL if self.mode == "exact" else BigRealDomain(dps=self.precision)


def _load_field(cfg: RunConfig) -> VectorField:
    """Read a field from a file, '-' for stdin, or 'random:<n>' /
    'random-homogeneous:<n>' seeded by --seed."""
    src = cfg.source
    if src is None:
        raise UsageError("no input field given")
    if src.startswith("random-homogeneous:"):
        vf = random_homogeneous_field(int(src.split(":", 1)[1]), cfg.seed)
    elif src.startswith("random:"):
        vf = random_field(int(src.split(":", 1)[1]), cfg.seed)
    else:
        text = sys.stdin.read() if src == "-" else Path(src).read_text(encoding="utf-8")
        return parse_vector_field(text, cfg.domain)
    return coerce_field(vf, cfg.domain)


def _emit_pairs(cfg: RunConfig, pairs: list[tuple[str, str]], payload: dict) -> None:
    if cfg.output == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, indent=2))
    elif cfg.output == "csv":
        print("key,value")
        for key, val in pairs:
            print(f"{key},{val}")
    else:
        for key, val in pairs:
            print(f"{key} = {val}")


def cmd_lyapunov(cfg: RunConfig) -> int:
    vf = _load_field(cfg)
    series = compute_series(vf, cfg.max_index)
    dom = vf.domain
    pairs = [(f"L_{j}", scalar_to_str(L, dom)) for j, L in series.l_values()]
    payload: dict = {
        "command": "lyapunov",
        "degree": vf.degree,
        "mode": cfg.mode,
        "L": {str(j): scalar_to_str(L, dom) for j, L in series.l_values()},
    }
    if cfg.show_terms:
        terms = {
            str(k): {f"{i},{j}": scalar_to_str(c, dom) for i, j, c in series.V[k].terms()}
            for k in sorted(series.V)
        }
        payload["V"] = terms
        pairs += [(f"V_{k}", str(series.V[k])) for k in sorted(series.V) if k > 2]
    _emit_pairs(cfg, pairs, payload)
    return EXIT_OK


def cmd_gaps(cfg: RunConfig) -> int:
    vf = _load_field(cfg)
    if not vf.is_homogeneous():
        raise UsageError("gap analysis requires a homogeneous field")
    J = cfg.max_index or 2 * (vf.degree + 2)  # default budget: the gap-law audit range
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
    _emit_pairs(cfg, pairs, payload)
    return EXIT_OK if report.passed else EXIT_GAP_MISMATCH


def cmd_center_check(cfg: RunConfig) -> int:
    vf = _load_field(cfg)
    cert = center_check(vf)
    dom = vf.domain
    pairs = [
        ("verdict", cert.verdict),
        ("center_bound", str(cert.center_bound)),
    ]
    if cert.weak_focus_order is not None:
        pairs.append(("weak_focus_order", str(cert.weak_focus_order)))
        j, val = cert.first_nonzero
        pairs.append((f"L_{j}", scalar_to_str(val, dom)))
    if cert.det_p is not None:
        pairs.append(("det_P", scalar_to_str(cert.det_p, dom)))
    if cert.reason:
        pairs.append(("reason", cert.reason))
    payload = {
        "command": "center-check",
        "verdict": cert.verdict,
        "center_bound": cert.center_bound,
        "weak_focus_order": cert.weak_focus_order,
        "first_nonzero": (
            {"index": cert.first_nonzero[0], "value": scalar_to_str(cert.first_nonzero[1], dom)}
            if cert.first_nonzero
            else None
        ),
        "det_P": scalar_to_str(cert.det_p, dom) if cert.det_p is not None else None,
        "ordering": "cyclicity <= weak-focus order <= center bound",
        "reason": cert.reason,
    }
    _emit_pairs(cfg, pairs, payload)
    return cert.exit_code


def cmd_example_jl(cfg: RunConfig) -> int:
    b4 = parse_rational(cfg.b4)
    if b4 >= 0:
        raise UsageError("--b4 must be negative")
    roots = [cfg.root] if cfg.root else [1, 2]
    reports = [reproduce_example(root=r, b4=b4, precision=cfg.precision) for r in roots]
    if cfg.output == "json":
        out = reports[0] if len(reports) == 1 else {"schema": SCHEMA, "roots": reports}
        print(json.dumps(out, indent=2))
        return EXIT_OK
    if cfg.output == "csv":
        print("key,value")
        for rep in reports:
            r = rep["root_index"]
            print(f"sigma_{r},{rep['sigma']}")
            for j in range(1, 9):
                print(f"L_{j}_root{r},{rep['L'][str(j)]}")
            print(f"L8_over_b4_8_root{r},{rep['L8_over_b4_8']}")
            print(f"detP_root{r},{rep['detP']}")
            print(f"detP_over_b4_30_root{r},{rep['detP_over_b4_30']}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bautin-lab",
        description="Lyapunov constants and center certificates for planar "
        "polynomial vector fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_j: int = 8):
        p.add_argument("source", help="field file, '-' for stdin, or random:<n> / random-homogeneous:<n>")
        p.add_argument("-J", "--max-index", type=int, default=default_j, help="highest Lyapunov index")
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
        p.add_argument("--precision", type=int, default=60, help="decimal digits in float mode")
        p.add_argument("--output", choices=("table", "json", "csv"), default="table")
        p.add_argument("--seed", type=int, default=0, help="seed for random:<n> inputs")

    p = sub.add_parser("lyapunov", help="compute Lyapunov constants")
    common(p)
    p.add_argument("--show-terms", action="store_true", help="also print the V_k terms")

    p = sub.add_parser("gaps", help="verify the homogeneous sparsity pattern")
    common(p, default_j=0)  # 0 = choose the audit budget from the degree

    p = sub.add_parser("center-check", help="weak-focus / center certificate")
    common(p)

    p = sub.add_parser("example-jl", help="eight-cycle cubic family report")
    p.add_argument("--root", type=int, choices=(1, 2), default=None, help="which admissible root (default: both)")
    p.add_argument("--b4", default="-1", help="negative rational value of b4")
    p.add_argument("--precision", type=int, default=60)
    p.add_argument("--output", choices=("table", "json", "csv"), default="table")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        source=getattr(args, "source", None),
        max_index=getattr(args, "max_index", 8),
        mode=getattr(args, "mode", "exact"),
        precision=args.precision,
        output=args.output,
        seed=getattr(args, "seed", 0),
        show_terms=getattr(args, "show_terms", False),
        root=getattr(args, "root", None),
        b4=getattr(args, "b4", "-1"),
    )
    handlers = {
        "lyapunov": cmd_lyapunov,
        "gaps": cmd_gaps,
        "center-check": cmd_center_check,
        "example-jl": cmd_example_jl,
    }
    try:
        return handlers[cfg.command](cfg)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SolverInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
