"""Work the benchmark runs in a fresh interpreter, one subcommand each.

    python3 perfbench/probe.py setup <mode>:<file> ...
        Import bautin_lab and parse every field file (in exact or float
        mode); print the seconds that took.
    python3 perfbench/probe.py verdicts <file> ...
        Print a JSON map file -> verdict of the exact center check.

``setup`` is the benchmark's set-up time.  ``verdicts`` runs apart from the
timed process so that its memory does not count in that process's peak RSS.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def setup(specs: list[str]) -> float:
    t0 = perf_counter()
    import bautin_lab
    from bautin_lab import BigRealDomain, parse_vector_field

    domains = {"exact": bautin_lab.RATIONAL, "float": BigRealDomain(dps=60)}
    for spec in specs:
        mode, _, path = spec.partition(":")
        parse_vector_field(Path(path).read_text(encoding="utf-8"), domains[mode])
    return perf_counter() - t0


def verdicts(paths: list[str]) -> dict[str, str]:
    from bautin_lab import center_check, parse_vector_field

    return {
        p: center_check(parse_vector_field(Path(p).read_text(encoding="utf-8"))).verdict
        for p in paths
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["setup"]:
        print(repr(setup(argv[1:])))
    elif argv[:1] == ["verdicts"]:
        print(json.dumps(verdicts(argv[1:])))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
