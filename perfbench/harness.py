"""One benchmark run: generate the inputs, time the jobs, check the outputs,
derive the metrics and write the result file.

Jobs run one after another in this process by calling
``bautin_lab.cli.main(argv)`` with stdout captured: a closed loop with one
client and no extra threads.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import mpmath
import mpmath.libmp

import bautin_lab
from bautin_lab import cli

from calibrate import Calibrator
from checks import KNOWN_DEFECT, check_job, needs_exact_verdict
from tracer import Tracer
from workloads import KERNEL, build_jobs

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "probe.py"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
RESULT_SCHEMA = "perfbench/1"
CHILD_TIMEOUT_S = 150


def environment(seed: int) -> dict:
    src = sorted((ROOT / "src" / "bautin_lab").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "bautin_lab": bautin_lab.__version__,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _probe(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(PROBE), *args], cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout


def measure_setup(jobs) -> list[float]:
    """Import + parse in fresh interpreters: one warm-up, then the samples."""
    specs = [f"{job.mode}:{job.path}" for job in jobs if job.path]
    _probe("setup", *specs)
    return [float(_probe("setup", *specs)) for _ in range(SETUP_REPEATS)]


class ExactVerdicts:
    """Exact center-check verdicts by file content digest, computed on demand
    in a child process (untimed, and outside the timed process's peak RSS)
    and cached in the work directory."""

    def __init__(self, cache_file: Path):
        self.cache_file = cache_file
        self.cache = json.loads(cache_file.read_text()) if cache_file.exists() else {}

    def lookup(self, paths: list[str]) -> dict[str, str]:
        digests = {p: hashlib.sha256((ROOT / p).read_bytes()).hexdigest() for p in paths}
        missing = sorted({p for p in paths if digests[p] not in self.cache})
        if missing:
            for p, verdict in json.loads(_probe("verdicts", *missing)).items():
                self.cache[digests[p]] = verdict
            tmp = self.cache_file.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.cache, indent=0, sort_keys=True))
            tmp.replace(self.cache_file)
        return {p: self.cache[digests[p]] for p in paths}


def execute(argv: list[str]) -> tuple[int | None, float, str, str]:
    """(exit code or None if it raised, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, perf_counter() - t0, out.getvalue(), err.getvalue()


def check_pass(jobs, raw: list[tuple], verdicts: ExactVerdicts, label: str) -> list[dict]:
    """Check each job's ``execute`` result; one record per job."""
    exact = verdicts.lookup([job.path for job, r in zip(jobs, raw) if needs_exact_verdict(job, r[2])])
    records = []
    for i, (job, (rc, seconds, stdout, stderr)) in enumerate(zip(jobs, raw)):
        failure = check_job(job, rc, stdout, exact.get(job.path))
        rec = {
            "pass": label, "job": i, "unit": job.unit, "command": job.command,
            "mode": job.mode, "argv": job.argv, "rc": rc, "seconds": seconds,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "stdout_bytes": len(stdout.encode()),
            "check": "ok" if failure is None else failure[0],
        }
        if failure is not None:
            rec["reason"] = failure[1]
            rec["stderr"] = stderr[-2000:]
        records.append(rec)
    return records


def _metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def end_to_end_metrics(passes: list[list[dict]], setup: list[float]) -> dict:
    """Job times are calibrated seconds (calibrate.py), except ``wall_raw_s``
    which is as measured; ``setup_s`` is as measured."""
    jobs = [r for p in passes for r in p]
    walls = [sum(r["scaled_seconds"] for r in p) for p in passes]
    raw_walls = [sum(r["seconds"] for r in p) for p in passes]
    m = {
        "wall_s": _metric(statistics.median(walls), "s", len(walls)),
        "wall_raw_s": _metric(statistics.median(raw_walls), "s", len(raw_walls)),
        "job_s.p50": _metric(statistics.median(r["scaled_seconds"] for r in jobs), "s", len(jobs)),
    }
    for command in sorted({r["command"] for r in jobs}):
        times = [r["scaled_seconds"] for r in jobs if r["command"] == command]
        m[f"{command}_s.p50"] = _metric(statistics.median(times), "s", len(times))
    m["setup_s"] = _metric(statistics.median(setup), "s", len(setup))
    m["machine_slowdown.p50"] = _metric(statistics.median(r["slowdown"] for r in jobs), "ratio", len(jobs))
    # ru_maxrss is in KiB on Linux
    m["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    failed = sum(r["check"] != "ok" for r in jobs)
    m["failed_frac"] = _metric(failed / len(jobs), "ratio", len(jobs))
    return m


def per_layer_metrics(tracer: Tracer, layers: dict, traced: list[dict], overhead_frac: float,
                      n_prefix: int) -> dict:
    n = len(traced)

    def get(name: str, key: str):
        return layers.get(name, {}).get(key, 0)

    m = {}
    for name, keys in (
        ("cli.main", ("calls", "busy_s", "self_s")),
        ("fields.parse_vector_field", ("busy_s",)),
        ("scalars.scalar_to_str", ("busy_s",)),
        ("engine.accumulate_rhs", ("calls", "busy_s", "self_s")),
        ("hpoly.mul", ("calls", "busy_s")),
        ("engine.rotational_solve", ("calls", "busy_s")),
        ("engine.compute_series_unknown", ("calls", "busy_s", "self_s")),
        ("structure.build_p_matrix", ("busy_s", "self_s")),
        ("structure.det_exact", ("calls", "busy_s")),
        ("cubic_family.find_sigma_roots", ("busy_s",)),
        ("cubic_family.substitution_chain", ("busy_s",)),
    ):
        for key in keys:
            m[f"{name}.{key}"] = _metric(get(name, key), "count" if key == "calls" else "s", n)
    m["hpoly.mul.coeff_products"] = _metric(tracer.coeff_products, "count", n)
    m["structure.det_exact.size.max"] = _metric(tracer.det_size_max, "count", n)
    m["engine.coeff_bits.max"] = _metric(tracer.coeff_bits_max(), "bit", n)
    m["cli.output_bytes"] = _metric(sum(r["stdout_bytes"] for r in traced), "B", n)
    m["trace.overhead_frac"] = _metric(overhead_frac, "ratio", n_prefix)
    return m


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Execute one run and return its result document (also written to
    ``.perfbench_out/``)."""
    workdir = WORK / f"{workload}-seed{seed}-s{seconds}"
    jobs = build_jobs(workload, seed, seconds, ROOT, workdir)
    setup = measure_setup(jobs)
    verdicts = ExactVerdicts(WORK / "exact-verdicts.json")

    first_field = next(j for j in jobs if j.path)
    warm = ["lyapunov", first_field.path, "-J", "2", "--output", "json", "--mode", first_field.mode]
    if execute(warm)[0] != 0:
        raise RuntimeError(f"warm-up job failed: {warm}")

    result = {
        "schema": RESULT_SCHEMA, "workload": workload, "seed": seed,
        "seconds": seconds, "trace": int(trace), "environment": environment(seed),
    }
    if not trace:
        cal = Calibrator(KERNEL[workload])
        passes: list[list[dict]] = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            cal.sample()
            raw, spans = [], []
            for job in jobs:
                begin = perf_counter()
                raw.append(execute(job.argv))
                spans.append((begin, perf_counter()))
                cal.after(raw[-1][1])
            last = perf_counter() - t0
            records = check_pass(jobs, raw, verdicts, f"untraced-{len(passes)}")
            for rec, (begin, end) in zip(records, spans):
                rec["slowdown"] = cal.slowdown(begin, end)
                rec["scaled_seconds"] = rec["seconds"] / rec["slowdown"]
            passes.append(records)
            if perf_counter() - start + last > seconds:  # another pass would not fit
                break
        result["calibration"] = {"kernel": cal.kernel, "ref_s": cal.ref_s, "samples": cal.samples}
        result["metrics"] = end_to_end_metrics(passes, setup)
        result["jobs"] = [r for p in passes for r in p]
    else:
        # The overhead is measured on the first unit, each job run untraced
        # and then traced, so that drift in machine speed hits both alike.
        prefix = [j for j in jobs if j.unit == 0]
        tracer = Tracer()
        raw_untraced, raw_traced = [], []
        for i, job in enumerate(jobs):
            if i < len(prefix):
                raw_untraced.append(execute(job.argv))
            with tracer:
                tracer.job = i
                raw_traced.append(execute(job.argv))
        untraced = check_pass(prefix, raw_untraced, verdicts, "untraced-prefix")
        traced = check_pass(jobs, raw_traced, verdicts, "traced")
        t_untraced = sum(r["seconds"] for r in untraced)
        t_traced = sum(r["seconds"] for r in traced[: len(prefix)])
        overhead = t_traced / t_untraced - 1
        result["layers"] = tracer.layers()
        result["metrics"] = per_layer_metrics(tracer, result["layers"], traced, overhead, len(prefix))
        result["jobs"] = untraced + traced
        result.update(tracer.dump())

    attempted = len(result["jobs"])
    failures = [r for r in result["jobs"] if r["check"] != "ok"]
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failed_by_kind"] = dict(Counter(r["check"] for r in failures))
    result["correct"] = all(r["check"] == KNOWN_DEFECT for r in failures)

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(result))
    result["result_file"] = out_file.relative_to(ROOT).as_posix()
    return result


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    env = result["environment"]
    lines = [
        f"== {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
        f"trace {result['trace']}  (python {env['python']}, mpmath {env['mpmath']}/"
        f"{env['mpmath_backend']}, nproc {env['nproc']})"
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:40s} {m['value']:>16.6g} {m['unit']:6s} n={m['n']}")
    if result["trace"]:
        lines.append(f"  {'layer':40s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
        for name, agg in sorted(result["layers"].items(), key=lambda kv: -kv[1]["busy_s"]):
            lines.append(f"  {name:40s} {agg['calls']:>9d} {agg['busy_s']:>10.4f} {agg['self_s']:>10.4f}")
    lines.append(
        f"  attempted {result['attempted']}, failed {result['failed']} {result['failed_by_kind']}, "
        f"correct {result['correct']}; result file {result['result_file']}"
    )
    for r in result["jobs"]:
        if r["check"] != "ok":
            lines.append(f"  FAILED [{r['check']}] {' '.join(r['argv'])}: {r['reason']}")
    return lines
