"""The benchmark wraps package functions by name from outside (see
perfbench/tracer.py).  This checks that the names it wraps still exist and
are still reached, so a refactor cannot silently empty a per-layer metric."""

from pathlib import Path

import bautin_lab.cli
import bautin_lab.structure
from bautin_lab.fields import random_field

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
