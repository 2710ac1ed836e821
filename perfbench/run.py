"""bautin-lab benchmark: drives the CLI end to end on seeded field files.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src/`` directory.  With one workload the last line of
stdout is a JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``.  ``all`` runs every workload
untraced and then traced, each in its own interpreter, and prints every
report.  See README.md for the workloads, metrics and result file schema.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-series", "center-exact", "float-mode")
RUN_TIMEOUT_S = 180


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=36, help="measured time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def contract_line(result: dict, spec: dict) -> dict:
    """The driver-facing summary: exactly the BENCHMARK.json metrics."""
    names = [m["name"] for m in spec["per_layer" if result["trace"] else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise KeyError(f"run did not produce {missing}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]}
            for n in names
        },
    }


def run_all(args) -> int:
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            )
            lines = done.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0:
                print(f"error: {workload} trace {trace} exited {done.returncode}", file=sys.stderr)
                return 1
            summary.setdefault(workload, {})[f"trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bautin_lab" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} is not a bautin-lab checkout (need src/bautin_lab and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    os.chdir(ROOT)  # job arguments name field files relative to the checkout root
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # needs bautin_lab on the path

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(harness.report(result)))
    print(json.dumps(contract_line(result, json.loads(spec_file.read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
