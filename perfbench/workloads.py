"""Seeded inputs and job lists for the three benchmark workloads.

Every field is generated with the library's own random families and written
as a ``.vf`` file with ``serialize_vector_field``; the program under test only
ever sees those files (never the CLI's ``random:`` sources, whose
``--mode float`` is silently ignored -- ROADMAP open item 2).

A workload's job list is a number of identical *units* (one cubic, or one
group of centers); the unit count is ``seconds // NOMINAL_UNIT_S`` so that one
pass over the list takes roughly ``--seconds`` on the reference machine (see
README.md).  The list depends only on (workload, seed, seconds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from bautin_lab import (
    random_divergence_free_field,
    random_field,
    random_reversible_field,
    rotational_family_field,
    serialize_vector_field,
)

#: Seconds one unit of each workload takes at the seed commit (Python 3.11,
#: pure-Python mpmath, one core of a 2-vCPU sandbox).  Only sets the unit
#: count; it is never used as a measurement.
NOMINAL_UNIT_S = {"exact-series": 5.4, "center-exact": 8.4, "float-mode": 4.5}

#: Calibration kernel (calibrate.py) matching each workload's arithmetic.
KERNEL = {"exact-series": "bigint", "center-exact": "bigint", "float-mode": "interp"}

#: Lyapunov budget of the series jobs.
SERIES_J = 60


@dataclass
class Job:
    """One CLI invocation and what its checker needs to know."""

    command: str  # "lyapunov" | "center-check" | "example-jl"
    argv: list[str]
    mode: str  # "exact" | "float"
    unit: int  # which unit of the job list it belongs to
    expect: dict = field(default_factory=dict)
    path: str | None = None  # field file, relative to the checkout root


def cubic_l1(vf) -> Fraction:
    """First Lyapunov constant of a cubic field in closed form.

    This is the acceptance-criterion-3 formula (3 f30 + f12 + g21 + 3 g03)/8
    extended by the quadratic terms of the classical first focal value
    (Guckenheimer & Holmes, eq. 3.4.11, omega = 1); it reduces to criterion 3
    when F_2 = G_2 = 0.
    """
    f2, g2, f3, g3 = vf.f_part(2), vf.g_part(2), vf.f_part(3), vf.g_part(3)
    f20, f11, f02 = f2.coeff(2, 0), f2.coeff(1, 1), f2.coeff(0, 2)
    g20, g11, g02 = g2.coeff(2, 0), g2.coeff(1, 1), g2.coeff(0, 2)
    cubic = 3 * f3.coeff(3, 0) + f3.coeff(1, 2) + g3.coeff(2, 1) + 3 * g3.coeff(0, 3)
    quad = f11 * (f20 + f02) - g11 * (g20 + g02) - 2 * f20 * g20 + 2 * f02 * g02
    return Fraction(cubic + quad) / 8


def _center(kind: str, n: int, seed: int, homogeneous: bool):
    if kind == "div":
        return random_divergence_free_field(n, seed, homogeneous=homogeneous)
    if kind == "rev":
        return random_reversible_field(n, seed, homogeneous=homogeneous)
    return rotational_family_field(n, seed)  # homogeneous by construction


class JobListBuilder:
    """Writes one run's field files into ``workdir`` and collects its jobs."""

    def __init__(self, root: Path, workdir: Path, rng: random.Random):
        self.root = root
        self.workdir = workdir
        self.rng = rng
        self.jobs: list[Job] = []
        workdir.mkdir(parents=True, exist_ok=True)

    def _write(self, name: str, vf) -> str:
        path = self.workdir / f"{name}.vf"
        path.write_text(serialize_vector_field(vf), encoding="utf-8")
        return path.relative_to(self.root).as_posix()

    def lyapunov(self, unit: int, mode: str) -> None:
        vf = random_field(3, self.rng.randrange(2**31))
        path = self._write(f"u{unit}-cubic-{mode}", vf)
        argv = ["lyapunov", path, "-J", str(SERIES_J), "--output", "json"]
        if mode == "float":
            argv += ["--mode", "float"]
        self.jobs.append(Job("lyapunov", argv, mode, unit, {"L1": str(cubic_l1(vf))}, path))

    def center(self, unit: int, mode: str, kind: str, n: int, homogeneous: bool) -> None:
        vf = _center(kind, n, self.rng.randrange(2**31), homogeneous)
        name = f"u{unit}-{kind}{n}{'h' if homogeneous else 'g'}-{mode}"
        path = self._write(name, vf)
        argv = ["center-check", path, "--output", "json"]
        if mode == "float":
            argv += ["--mode", "float"]
        expect = {"degree": n, "homogeneous": vf.is_homogeneous()}
        self.jobs.append(Job("center-check", argv, mode, unit, expect, path))

    def example_jl(self, unit: int, root_index: int, b4: Fraction) -> None:
        # "--b4=-p/q": a separate negative value would parse as an option
        argv = ["example-jl", "--root", str(root_index), f"--b4={b4}", "--output", "json"]
        expect = {"root": root_index, "b4": str(b4)}
        self.jobs.append(Job("example-jl", argv, "float", unit, expect))


def build_jobs(workload: str, seed: int, seconds: int, root: Path, workdir: Path) -> list[Job]:
    """The run's fixed job list; same (workload, seed, seconds) -> same jobs."""
    if workload not in NOMINAL_UNIT_S:
        raise ValueError(f"unknown workload {workload!r}")
    units = max(1, int(seconds // NOMINAL_UNIT_S[workload]))
    b = JobListBuilder(root, workdir, random.Random(f"{workload}/{seed}"))
    for u in range(units):
        if workload == "exact-series":
            b.lyapunov(u, "exact")
        elif workload == "center-exact":
            # general (non-homogeneous) constructed centers: 14x14 and 20x20 matrices
            for kind, n in (("div", 4), ("rev", 4), ("div", 5), ("rev", 5)):
                b.center(u, "exact", kind, n, homogeneous=False)
        else:
            b4 = -Fraction(b.rng.randint(1, 9), b.rng.randint(1, 9))
            b.example_jl(u, 1, b4)
            b.example_jl(u, 2, b4)
            b.lyapunov(u, "float")
            # General centers: a divergence-free quartic and a reversible
            # quintic.  A general divergence-free quintic takes either 0.1 s
            # (false early weak-focus) or 4 s (full path), which would swamp
            # the run-to-run spread; the quartic shows the same defect at a
            # quarter of the cost.  Homogeneous degrees alternate.
            b.center(u, "float", "div", 4, homogeneous=False)
            b.center(u, "float", "rev", 5, homogeneous=False)
            for kind in ("div", "rev", "rot"):
                b.center(u, "float", kind, 4 + u % 2, homogeneous=True)
    return b.jobs
