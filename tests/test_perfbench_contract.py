"""The benchmark wraps package functions by name from outside (see
perfbench/tracer.py) and imports others directly.  This checks that the
names it wraps and imports still exist and are still reached, so a refactor
cannot silently empty a per-layer metric or break a benchmark run."""

import ast
import importlib
from pathlib import Path

import bautin_lab
import bautin_lab.cli
import bautin_lab.structure
from bautin_lab.fields import random_field
from bautin_lab.hpoly import HomogPoly

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_spans_cover_certificate_layers(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    with Tracer() as tracer:
        bautin_lab.structure.build_p_matrix(random_field(3, 1))
        sample = str(ROOT / "sample_fields" / "cubic_f30.vf")
        code = bautin_lab.cli.main(["center-check", sample, "--output", "json"])
    assert code == 5 and '"verdict": "weak-focus"' in capsys.readouterr().out
    names = {span[0] for span in tracer.spans}
    assert {"engine.compute_series_unknown", "structure.build_p_matrix", "cli.main"} <= names


def test_tracer_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import FUNCTIONS

    for module, name in FUNCTIONS:
        fn = getattr(importlib.import_module(f"bautin_lab.{module}"), name)
        assert callable(fn), (module, name)
    assert callable(HomogPoly.__mul__)


def test_tracer_spans_cover_the_per_degree_loop(monkeypatch, capsys):
    # both modes solve every degree through accumulate_rhs and rotational_solve
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    for mode in ("exact", "float"):
        with Tracer() as tracer:
            argv = ["lyapunov", "random:3", "--seed", "4", "-J", "4", "--mode", mode]
            code = bautin_lab.cli.main(argv)
        assert code == 0 and capsys.readouterr().out.startswith("L_1 = ")
        calls = {}
        for span in tracer.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        assert calls.get("engine.accumulate_rhs") == 8, (mode, calls)
        assert calls.get("engine.rotational_solve") == 8, (mode, calls)


def test_benchmark_imports_resolve():
    # every "from bautin_lab... import X" under perfbench/, not only the tracer's
    seen = 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bautin_lab"):
                exec(ast.unparse(node), {})  # ImportError on a name that is gone
                seen += len(node.names)
    assert seen >= 10


def test_star_import_resolves():
    namespace = {}
    exec("from bautin_lab import *", namespace)  # AttributeError on a stale __all__ entry
    assert set(bautin_lab.__all__) <= namespace.keys()
