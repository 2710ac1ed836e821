import csv
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import bautin_lab
from bautin_lab import cli, structure
from bautin_lab.cli import main
from bautin_lab.engine import compute_series
from bautin_lab.errors import UsageError
from bautin_lab.fields import (
    coerce_field,
    parse_vector_field,
    random_divergence_free_field,
    serialize_vector_field,
)
from bautin_lab.scalars import RATIONAL, BigRealDomain, ResidueDomain, parse_rational
from bautin_lab.structure import center_check


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_field(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_lyapunov_table(tmp_path, capsys):
    path = write_field(tmp_path, "cubic.vf", "n 3\nF 3 0 1\n")
    code, out, err = run(capsys, "lyapunov", path, "-J", "1")
    assert code == 0 and err == ""
    assert out.strip() == "L_1 = 3/8"


def test_lyapunov_json_all_zero(tmp_path, capsys):
    path = write_field(tmp_path, "ham.vf", "n 2\nF 2 0 1\nG 1 1 -2\n")
    code, out, _ = run(capsys, "lyapunov", path, "-J", "6", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "bautin-lab/1"
    assert payload["L"] == {str(j): "0" for j in range(1, 7)}


def test_lyapunov_csv(tmp_path, capsys):
    path = write_field(tmp_path, "cubic.vf", "n 3\nF 3 0 1\n")
    code, out, _ = run(capsys, "lyapunov", path, "-J", "2", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == "L_1,3/8"


def test_lyapunov_float_mode(tmp_path, capsys):
    path = write_field(tmp_path, "q.vf", "n 2\nF 2 0 0.5\n")
    code, out, _ = run(capsys, "lyapunov", path, "-J", "1", "--mode", "float", "--precision", "40")
    assert code == 0 and out.startswith("L_1 = ")


def test_float_show_terms_print_at_the_working_precision(tmp_path, capsys):
    # V_3 of this field has the coefficient -2/3 at y^3: the table and csv
    # terms print it to --precision digits, as the JSON output does
    path = write_field(tmp_path, "q.vf", "n 2\nF 2 0 1\n")
    args = ("lyapunov", path, "-J", "1", "--mode", "float", "--precision", "40", "--show-terms")
    code, out, _ = run(capsys, *args, "--output", "json")
    want = json.loads(out)["V"]["3"]["0,3"]
    assert code == 0 and want == "-0." + "6" * 39 + "7"
    for output, sep in (("table", " = "), ("csv", ",")):
        code, out, err = run(capsys, *args, "--output", output)
        assert code == 0 and err == ""
        line = next(row for row in out.splitlines() if row.startswith(f"V_3{sep}"))
        assert line.endswith(f"({want})*y^3"), output


def test_missing_file_is_bad_input(capsys):
    code, out, err = run(capsys, "lyapunov", "missing.vf")
    assert code == 1 and out == "" and "missing.vf" in err


def test_unreadable_sources_are_bad_input(tmp_path, capsys):
    code, out, err = run(capsys, "lyapunov", "random:x")
    assert code == 1 and out == "" and "random:x" in err
    path = tmp_path / "binary.vf"
    path.write_bytes(b"n 3\nF 3 0 \xff\n")
    code, out, err = run(capsys, "lyapunov", str(path))
    assert code == 1 and out == "" and "UTF-8" in err


def test_exact_output_above_int_str_limit(tmp_path, capsys):
    # 1201-digit coefficients give L_2 and L_3 more digits than Python
    # converts from int to text by default (4300); the values must print in
    # full, not end in a bad-input exit
    N = 10**1200 + 7
    text = f"n 3\nF 2 0 {N}\nF 3 0 {N}\nG 1 1 {-N}\nG 0 3 3\n"
    path = write_field(tmp_path, "big.vf", text)
    series = compute_series(parse_vector_field(text), 3)
    code, out, err = run(capsys, "lyapunov", path, "-J", "3")
    assert code == 0 and err == ""
    rows = out.splitlines()
    assert len(rows) == 3 and max(map(len, rows)) > 4300
    for (j, L), row in zip(series.l_values(), rows):
        key, _, value = row.partition(" = ")
        num, _, den = value.partition("/")
        assert key == f"L_{j}"
        assert Decimal(num) == L.numerator and Decimal(den or 1) == L.denominator
    # the terms and the JSON rendering take the same route
    code, out, err = run(capsys, "lyapunov", path, "-J", "3", "--show-terms")
    assert code == 0 and err == "" and out.startswith("\n".join(rows))
    code, out, err = run(capsys, "lyapunov", path, "-J", "3", "--output", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["L"] == {row[2]: row.partition(" = ")[2] for row in rows}


def test_exact_input_above_int_str_limit(tmp_path, capsys):
    # a 5001-digit coefficient: more digits than Python reads from text into
    # an int by default (4300); it must parse exactly, run and round-trip
    digits = "1" + "0" * 4999 + "7"
    N = 10**5000 + 7
    text = f"n 3\nF 2 0 {digits}/3\nF 3 0 -{digits}\nG 1 1 1\nG 0 3 0.{digits}\n"
    vf = parse_vector_field(text)
    assert vf.f_part(2).coeff(2, 0) == Fraction(N, 3)
    assert vf.f_part(3).coeff(3, 0) == -N
    assert vf.g_part(3).coeff(0, 3) == Fraction(N, 10**5001)
    L1 = compute_series(vf, 1).L[1]
    code, out, err = run(capsys, "lyapunov", write_field(tmp_path, "big.vf", text), "-J", "1")
    assert code == 0 and err == ""
    num, _, den = out.strip().removeprefix("L_1 = ").partition("/")
    assert Decimal(num) == L1.numerator and Decimal(den or 1) == L1.denominator
    back = parse_vector_field(serialize_vector_field(vf))
    for k in (2, 3):
        assert back.f_part(k).coeffs == vf.f_part(k).coeffs
        assert back.g_part(k).coeffs == vf.g_part(k).coeffs


def test_internal_failure_is_not_bad_input(monkeypatch, capsys):
    # a ValueError from inside the program is a defect, not bad input
    def broken(args):
        raise ValueError("broken invariant")

    monkeypatch.setattr(cli, "cmd_lyapunov", broken)
    code, out, err = run(capsys, "lyapunov", "random:3")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == "" and "ValueError: broken invariant" in err


def test_parse_error_is_bad_input(tmp_path, capsys):
    path = write_field(tmp_path, "bad.vf", "n 2\nF 5 0 1\n")
    code, _, err = run(capsys, "lyapunov", path)
    assert code == 1 and "line 2" in err
    # float mode rejects what exact mode rejects, instead of a nan/inf verdict
    for coeff in ("nan", "inf", "1/0"):
        path = write_field(tmp_path, "bad.vf", f"n 3\nF 3 0 {coeff}\n")
        code, out, err = run(capsys, "center-check", path, "--mode", "float")
        assert code == 1 and out == "" and "line 2" in err, coeff
    # a decimal exponent beyond the bound is refused before 10^E is built
    path = write_field(tmp_path, "big.vf", "n 2\nF 2 0 1e999999999\nF 1 1 1\nG 1 1 2\n")
    for mode in ("exact", "float"):
        code, out, err = run(capsys, "lyapunov", path, "-J", "2", "--mode", mode)
        assert code == 1 and out == "" and "line 2" in err and "100000" in err, mode


def test_gaps_match(tmp_path, capsys):
    code, out, _ = run(capsys, "gaps", "random-homogeneous:4", "--seed", "3", "-J", "8")
    assert code == 0
    assert "predicted_first_nonzero = L_3" in out
    assert "match = True" in out


def test_gaps_divergence_free_note(tmp_path, capsys):
    path = write_field(tmp_path, "ham.vf", "n 2\nF 2 0 1\nG 1 1 -2\n")
    code, out, _ = run(capsys, "gaps", path, "-J", "6")
    assert code == 0
    assert "partial center condition" in out


def test_random_sources_follow_float_mode(capsys):
    args = ("lyapunov", "random:3", "--seed", "1", "-J", "2", "--output", "json")
    code, out, _ = run(capsys, *args)
    exact = json.loads(out)["L"]
    code, out, _ = run(capsys, *args, "--mode", "float", "--precision", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "float"
    for j, text in payload["L"].items():
        assert "/" not in text and "." in text  # a decimal, not p/q
        assert len(text.lstrip("-").replace(".", "").lstrip("0")) == 40  # --precision digits
        assert abs(Fraction(text) - Fraction(exact[j])) < Fraction(1, 10**30)
    # gap verification needs exact arithmetic, also for a generated field:
    # gaps has no --mode flag, so argparse refuses it before any work
    with pytest.raises(SystemExit) as exc:
        main(["gaps", "random-homogeneous:4", "--seed", "3", "--mode", "float"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--mode" in captured.err


def test_gaps_rejects_non_homogeneous(capsys):
    code, _, err = run(capsys, "gaps", "random:3", "--seed", "1")
    assert code == 1 and "homogeneous" in err


def test_precision_is_refused_in_exact_mode(capsys):
    # --precision sets float digits only; exact mode used to ignore it, even
    # an invalid value
    path = str(Path(__file__).resolve().parents[1] / "sample_fields" / "cubic_f30.vf")
    for command in ("lyapunov", "center-check"):
        code, out, err = run(capsys, command, path, "--precision", "5")
        assert code == 1 and out == "" and "--precision" in err, command


def test_seed_is_refused_for_a_file_or_stdin(tmp_path, monkeypatch, capsys):
    # --seed draws random:<n> fields only; a file or stdin used to ignore it
    path = write_field(tmp_path, "cubic.vf", "n 3\nF 3 0 1\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("n 3\nF 3 0 1\n"))
    for command, source in (("lyapunov", path), ("gaps", path), ("center-check", "-")):
        code, out, err = run(capsys, command, source, "--seed", "1")
        assert code == 1 and out == "" and "--seed" in err, command


def test_center_check_weak_focus_exit_code(tmp_path, capsys):
    path = write_field(tmp_path, "cubic.vf", "n 3\nF 3 0 1\n")
    code, out, _ = run(capsys, "center-check", path)
    assert code == 5
    assert "verdict = weak-focus" in out
    assert "weak_focus_order = 1" in out


def test_center_check_hamiltonian_never_weak_focus(tmp_path, capsys):
    path = write_field(tmp_path, "ham.vf", "n 2\nF 2 0 1\nG 1 1 -2\n")
    code, out, _ = run(capsys, "center-check", path)
    assert code in (0, 6)
    assert "weak-focus" not in out


def test_center_check_rejects_max_index(capsys):
    # center-check fixes its own budget from the center bound, so -J is not
    # one of its flags: argparse refuses it instead of silently ignoring it
    with pytest.raises(SystemExit) as exc:
        main(["center-check", "random:3", "-J", "-2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "-J" in captured.err


def test_center_check_json_round_trip(tmp_path, capsys):
    path = write_field(tmp_path, "cubic.vf", "n 3\nF 3 0 1\n")
    code, out, _ = run(capsys, "center-check", path, "--output", "json")
    assert code == 5
    payload = json.loads(out)
    assert payload["verdict"] == "weak-focus"
    assert payload["first_nonzero"] == {"index": 1, "value": "3/8"}


def test_example_jl_rejects_nonnegative_b4(capsys):
    code, _, err = run(capsys, "example-jl", "--b4", "0.5")
    assert code == 1 and "negative" in err
    code, _, err = run(capsys, "example-jl", "--b4", "0")
    assert code == 1
    code, out, err = run(capsys, "example-jl", "--b4=1/0")
    assert code == 1 and out == "" and err.startswith("error: ")


def test_example_jl_reads_a_separate_negative_b4(capsys):
    # argparse took "-1/2" and "-1e-3" for options ("expected one argument",
    # exit 2); only the attached form "--b4=-1/2" used to work
    seen = {}
    forms = (("--b4", "-1/2"), ("--b4=-1/2",), ("--b", "-1/2"), ("--b4", "-0.5"), ("--b4", "-1e-3"))
    for argv in forms:
        code, out, err = run(capsys, "example-jl", "--root", "1", *argv, "--output", "json")
        assert code == 0 and err == "", argv
        seen[argv] = json.loads(out)["b4"]
    assert seen.pop(("--b4", "-1e-3")) == "-1/1000"
    assert set(seen.values()) == {"-1/2"}


def test_example_jl_single_root_json(capsys):
    code, out, _ = run(capsys, "example-jl", "--root", "2", "--precision", "60", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "bautin-lab/1"
    assert payload["root_index"] == 2
    assert payload["L"]["8"].startswith("-2.1597168095")
    # JSON carries exact strings, never binary floats
    assert isinstance(payload["L8_over_b4_8"], str)


def test_example_jl_at_the_lowest_precision(capsys):
    # 30 digits is the floor of every extended-precision domain; both roots
    # still kill L_1..L_7 next to L_8 and confirm both scaling exponents to
    # within 10^(20 - 30)
    code, out, _ = run(capsys, "example-jl", "--precision", "30", "--output", "json")
    assert code == 0
    tol = mp.mpf(10) ** -10
    for report in json.loads(out)["roots"]:
        L = {int(j): mp.mpf(v) for j, v in report["L"].items()}
        assert L[8] != 0 and all(abs(L[j]) <= tol * abs(L[8]) for j in range(1, 8))
        check = report["scaling_check"]
        for key in ("l8_relative_deviation", "det_relative_deviation"):
            assert mp.mpf(check[key]) <= tol, key


def test_example_jl_prints_each_parameter_as_its_stage_formula_rounded_once(capsys):
    # the stages run exactly on the stored sigma, the given b4 and the
    # rounded square roots b6, a1, b1, and each printed parameter is the
    # exact stage value rounded once
    from bautin_lab.cubic_family import b6_squared_value, find_sigma_roots

    code, out, _ = run(capsys, "example-jl", "--root", "2", "--b4=-3/7", "--output", "json")
    assert code == 0
    dom, b4 = BigRealDomain(dps=60), Fraction(-3, 7)
    a9 = find_sigma_roots(60)[1] * b4
    b6 = -dom.sqrt(b6_squared_value(a9, b4))
    a8 = (13 * a9 * b6 + 60 * b4 * b6) / (20 * (a9 + 4 * b4))
    b8 = (-601 * a9**3 - 7240 * a9**2 * b4 - 30480 * a9 * b4**2 - 43200 * b4**3) / (
        48 * (2 * a9**2 + 23 * a9 * b4 + 60 * b4**2)
    )
    want = {
        "a1": dom.sqrt((b8 - a8) / 2), "b1": dom.sqrt((b8 + a8) / 2), "a3": 0,
        "a5": -b4 - a9 + b6 / 2, "a7": -b4, "a8": a8, "a9": a9, "b4": b4, "b5": 0,
        "b6": b6, "b8": b8,
    }
    assert json.loads(out)["params"] == {k: dom.to_str(v) for k, v in want.items()}


def test_float_results_do_not_depend_on_the_global_precision(capsys):
    from bautin_lab.cubic_family import reproduce_example

    cubic = str(Path(__file__).resolve().parents[1] / "sample_fields" / "cubic_f30.vf")
    dom = BigRealDomain(dps=60)
    values = ["1/3", "-2.5e-70", Fraction(10**70 + 1, 7), Fraction(0.1), BigRealDomain(dps=120).ratio(1, 7)]

    def results():
        return (
            reproduce_example(root=1, b4="-3/7"),
            run(capsys, "lyapunov", "random:3", "--mode", "float", "-J", "6"),
            run(capsys, "center-check", cubic, "--mode", "float", "--output", "json"),
            [(dom.coerce(v), dom.to_str(v)) for v in values],
        )

    with mp.workdps(15):
        low = results()
    with mp.workdps(300):
        high = results()
    assert low == high


def test_example_jl_table_both_roots(capsys):
    code, out, _ = run(capsys, "example-jl", "--precision", "60")
    assert code == 0
    assert "root 1" in out and "root 2" in out
    assert "scaling check" in out


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("n 3\nF 3 0 1\n"))
    code, out, _ = run(capsys, "lyapunov", "-", "-J", "1")
    assert code == 0 and out.strip() == "L_1 = 3/8"


def test_byte_order_mark_is_dropped(tmp_path, capsys, monkeypatch):
    # UTF-8 text saved with a byte-order mark, as some editors write it
    path = tmp_path / "bom.vf"
    path.write_bytes(b"\xef\xbb\xbfn 3\nF 3 0 1\n")
    code, out, _ = run(capsys, "lyapunov", str(path), "-J", "1")
    assert code == 0 and out.strip() == "L_1 = 3/8"
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeffn 3\nF 3 0 1\n"))
    code, out, _ = run(capsys, "lyapunov", "-", "-J", "1")
    assert code == 0 and out.strip() == "L_1 = 3/8"


#: Run in a fresh interpreter: exact work first, then the float commands,
#: which store dyadic Fractions and print them without mpmath.
_LAZY_PROBE = """
import contextlib, io, json, sys
import bautin_lab
from bautin_lab import cli, parse_vector_field

def stdlib():
    names = ("dataclasses", "inspect", "typing", "traceback", "pathlib", "random")
    return [m for m in names if m in sys.modules]

path = sys.argv[1]
stages = [stdlib()]  # after the import, the exact runs and each float run
missing = sorted(set(bautin_lab.__all__) - set(dir(bautin_lab)))
with open(path, encoding="utf-8") as f:
    parse_vector_field(f.read())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([cmd, path]) for cmd in ("lyapunov", "gaps", "center-check")]
stages.append(stdlib())
loaded = [m for m in ("mpmath", "bautin_lab.cubic_family") if m in sys.modules]
runs = []
for argv in (
    ["lyapunov", path, "--mode", "float", "-J", "2"],
    ["center-check", path, "--mode", "float"],
    ["example-jl", "--root", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs.append([cli.main(argv), out.getvalue()])
    stages.append(stdlib())
float_loaded = "mpmath" in sys.modules
print(json.dumps({"missing": missing, "codes": codes, "loaded": loaded, "runs": runs,
                  "float_loaded": float_loaded, "stages": stages}))
"""


def test_exact_work_loads_neither_mpmath_nor_the_cubic_family(tmp_path, capsys):
    # nor dataclasses or inspect, at any stage; and under -S, where no site
    # hook imports typing first, the package does not import typing either,
    # nor, up to the end of the exact runs, traceback, pathlib or random
    # (the internal-error branch, and the seeded generators, load them)
    path = write_field(tmp_path, "cubic.vf", "n 3\nF 3 0 1\n")
    src = str(Path(bautin_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    expected = [
        list(run(capsys, "lyapunov", path, "--mode", "float", "-J", "2")[:2]),
        list(run(capsys, "center-check", path, "--mode", "float")[:2]),
        list(run(capsys, "example-jl", "--root", "1")[:2]),
    ]
    for flags, absent in (([], ["dataclasses", "inspect"]), (["-S"], ["dataclasses", "inspect", "typing"])):
        done = subprocess.run(
            [sys.executable, *flags, "-c", _LAZY_PROBE, path],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(done.stdout)
        assert probe["missing"] == []
        assert probe["codes"] == [0, 0, 5]
        assert probe["loaded"] == [] and probe["float_loaded"] is False
        assert probe["runs"] == expected
        assert len(probe["stages"]) == 5
        for stage, loaded in enumerate(probe["stages"]):
            assert not set(absent) & set(loaded), (flags, stage, loaded)
        if flags:
            assert probe["stages"][:2] == [[], []]


def test_the_parser_is_built_once_and_parses_as_a_fresh_one(tmp_path, capsys):
    # one cached parser, after a usage error and the other commands, prints
    # byte for byte what a freshly built one prints, with the same exit code
    path = write_field(tmp_path, "cubic.vf", "n 3\nF 3 0 1\n")
    calls = [
        ["lyapunov", path, "--output", "xml"],
        ["lyapunov", path, "--output", "csv"],
        ["center-check", path],
        ["example-jl", "--root", "1", "--b4", "-1/2"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    parser = cli.build_parser()
    cached = [outcome(argv) for argv in calls]
    assert cli.build_parser() is parser
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert cli.build_parser() is not parser
    assert [code for code, _, _ in cached] == [2, 0, 5, 0]
    assert "invalid choice: 'xml'" in cached[0][2]
    assert cached == fresh


def test_center_check_float_mode_resolved_cubic(tmp_path, capsys):
    from fractions import Fraction

    from bautin_lab.cubic_family import (
        family_vector_field,
        find_sigma_roots,
        substitution_chain,
    )

    dom = BigRealDomain(dps=60)
    s1, _ = find_sigma_roots(60)
    vf = family_vector_field(substitution_chain(Fraction(-1), s1, 60), 60)
    path = tmp_path / "resolved.vf"
    path.write_text(
        "n 3\n"
        + "".join(
            f"{side} {i} {j} {dom.to_str(c)}\n"
            for side, parts in (("F", vf.F), ("G", vf.G))
            for k in sorted(parts)
            for i, j, c in parts[k].terms()
        ),
        encoding="utf-8",
    )
    # the paper's field is a weak focus of order 8; its 60 digits, read as
    # exact decimals, make a weak focus of order 4 (L_4 about -8.6e-57), and
    # float mode finds that order from the residues, as exact mode does, and
    # prints the exact L_4 rounded once to 60 digits
    lines = {}
    for mode in ("float", "exact"):
        code, out, _ = run(capsys, "center-check", str(path), "--mode", mode)
        assert code == 5 and "weak_focus_order = 4" in out, mode
        lines[mode] = out.split("L_4 = ")[1].strip()
    exact = parse_rational(lines["exact"])
    assert lines["float"] == dom.to_str(dom.ratio(exact.numerator, exact.denominator))


def test_center_check_float_reads_its_input_exactly(tmp_path, capsys):
    # general divergence-free quartics are centers with det P = 0; rounded
    # to 60 digits, seeds 6, 8 and 10 are weak foci.  The CLI reads the text
    # exactly, so every residue vanishes and the float verdict is
    # inconclusive like the exact one
    for seed in (6, 8, 10):
        vf = random_divergence_free_field(4, seed)
        assert center_check(vf).verdict == "inconclusive"
        assert center_check(coerce_field(vf, BigRealDomain(dps=60))).verdict == "weak-focus"
        path = write_field(tmp_path, f"div4-{seed}.vf", serialize_vector_field(vf))
        code, out, _ = run(capsys, "center-check", path, "--mode", "float")
        assert code == 6 and "verdict = inconclusive" in out, seed


def _record_series(monkeypatch):
    """The fields of every series ``center_check`` starts, in order."""
    seen = []
    compute = structure.compute_series

    def record(vf, J):
        seen.append(vf)
        return compute(vf, J)

    monkeypatch.setattr(structure, "compute_series", record)
    return seen


def test_center_check_float_rounds_its_input_once(tmp_path, capsys, monkeypatch):
    # c = 1 + 2^-203 + 2^-450 lies just above a tie of the 203-bit (60-digit)
    # grid, and L_1 of this quadratic is (c^2 + 1)/16.  Float mode reads the
    # text exactly and prints L_1 of those values rounded once: the series
    # behind the printed value runs on c itself, and its result differs in
    # the last bit from a 60-digit run on c rounded
    c = f"{2**450 + 2**247 + 1}/{2**450}"
    text = f"n 2\nF 2 0 {c}\nF 1 1 {c}\nG 0 2 1\n"
    seen = _record_series(monkeypatch)
    path = write_field(tmp_path, "tie.vf", text)
    code, out, _ = run(capsys, "center-check", path, "--mode", "float")
    assert code == 5 and [vf.domain for vf in seen[1:]] == [RATIONAL]
    assert seen[1].f_part(2).coeff(2, 0) == parse_rational(c)
    vf, dom = parse_vector_field(text), BigRealDomain(dps=60)
    L = compute_series(vf, 1).L[1]
    once = dom.ratio(L.numerator, L.denominator)
    assert f"L_1 = {dom.to_str(once)}" in out
    cert = center_check(vf, dom)
    assert cert.first_nonzero == (1, once)
    assert once != compute_series(coerce_field(vf, dom), 1).L[1]


def test_center_check_float_confirms_only_a_weak_focus(capsys, monkeypatch):
    # the residue pass runs first; the exact search runs only below a
    # nonzero residue: none for the Hamiltonian center, one for the cubic
    # weak focus
    seen = _record_series(monkeypatch)
    samples = Path(__file__).resolve().parents[1] / "sample_fields"
    for name, code, after in (("hamiltonian.vf", 6, []), ("cubic_f30.vf", 5, [RATIONAL])):
        seen.clear()
        got, _, _ = run(capsys, "center-check", str(samples / name), "--mode", "float")
        assert got == code and isinstance(seen[0].domain, ResidueDomain), name
        assert [vf.domain for vf in seen[1:]] == after, name


def test_center_check_float_refuses_a_denominator_divisible_by_the_prime(tmp_path, capsys):
    # 1/p has no residue modulo p: float mode answers inconclusive and names
    # the prime; exact mode finds the weak focus
    p = ResidueDomain().p
    path = write_field(tmp_path, "p.vf", f"n 3\nF 2 0 1/{p}\nF 3 0 1\n")
    code, out, _ = run(capsys, "center-check", path, "--mode", "float", "--output", "json")
    payload = json.loads(out)
    assert code == 6 and payload["verdict"] == "inconclusive"
    assert str(p) in payload["reason"] and "--mode exact" in payload["reason"]
    code, out, _ = run(capsys, "center-check", path)
    assert code == 5 and "weak_focus_order = 1" in out


def test_center_check_float_order_is_exact_when_p_divides_the_constant(tmp_path, capsys):
    # L_1 = p/8 is nonzero but its residue is zero: the residue pass first
    # sees L_3, and the exact search below it still stops at L_1
    p = ResidueDomain().p
    path = write_field(tmp_path, "p8.vf", f"n 3\nF 3 0 1\nF 1 2 {p - 3}\n")
    for mode in ("exact", "float"):
        code, out, _ = run(capsys, "center-check", path, "--mode", mode)
        assert code == 5 and "weak_focus_order = 1" in out, mode
    assert "L_1 = 288230376151711743.875" in out


def test_center_check_float_prints_no_det_p_at_degenerate_centers(tmp_path, capsys):
    # general divergence-free quartics whose exact det P is 0, while their
    # 60- and 120-digit det P are nonzero with unrelated values.  Float mode
    # takes no det P: every residue of the leading constants vanishes, so
    # the verdict is inconclusive like the exact one, with no det_P line
    for seed in (0, 11):
        vf = random_divergence_free_field(4, seed)
        assert center_check(vf).det_p == 0
        path = write_field(tmp_path, f"div4-{seed}.vf", serialize_vector_field(vf))
        code, out, _ = run(capsys, "center-check", path, "--mode", "float")
        assert code == 6 and "verdict = inconclusive" in out, seed
        assert "det_P" not in out and "--mode exact" in out, seed


def test_center_check_float_never_certifies_a_center(capsys):
    # the sample Hamiltonian quadratic is a center; rounded, it is in general
    # not one, so float mode takes no det P and points to exact mode
    path = str(Path(__file__).resolve().parents[1] / "sample_fields" / "hamiltonian.vf")
    code, out, _ = run(capsys, "center-check", path, "--mode", "float", "--output", "json")
    assert code == 6
    payload = json.loads(out)
    assert payload["verdict"] == "inconclusive" and payload["det_P"] is None
    assert "exact" in payload["reason"]


def test_float_input_above_int_str_limit(tmp_path, capsys):
    # a 5001-digit coefficient in float mode is read exactly and rounded once
    digits = "1" + "0" * 4999 + "7"
    text = f"n 3\nF 2 0 {digits}/3\nF 3 0 -{digits}\nG 1 1 1\nG 0 3 0.{digits}\n"
    code, out, err = run(
        capsys, "lyapunov", write_field(tmp_path, "big.vf", text), "--mode", "float", "-J", "2"
    )
    assert code == 0 and err == "" and out.startswith("L_1 = ")
    exact = compute_series(parse_vector_field(text), 2).L
    domain = BigRealDomain(dps=60)
    vf = parse_vector_field(text, domain)
    with mp.workdps(domain.dps):
        assert vf.f_part(2).coeff(2, 0) == mp.fdiv(10**5000 + 7, 3)
        assert vf.g_part(3).coeff(0, 3) == mp.fdiv(10**5000 + 7, 10**5001)
        for j, line in enumerate(out.strip().splitlines(), start=1):
            want = mp.fdiv(exact[j].numerator, exact[j].denominator)
            got = mp.mpf(line.partition(" = ")[2])
            assert abs(got - want) <= mp.mpf("1e-50") * abs(want), j
    # nan, inf and 1/0 stay refused: test_parse_error_is_bad_input


def test_gaps_default_budget_follows_degree(capsys):
    # without -J the audit range is 2(n+2); for n=6 that reaches L_10 and
    # beyond, far past the fixed default of the other commands
    code, out, _ = run(capsys, "gaps", "random-homogeneous:6", "--seed", "2")
    assert code == 0
    assert "predicted_L_indices = [5, 10, 15]" in out


def test_gaps_refuses_a_budget_below_one(capsys):
    # -J 0 used to run the default budget 2(n+2); it is refused as
    # lyapunov refuses it
    for command in ("gaps", "lyapunov"):
        code, out, err = run(capsys, command, "random-homogeneous:3", "-J", "0")
        assert code == 1 and out == "" and "J >= 1" in err, command


def test_csv_quotes_values_that_hold_a_comma(capsys):
    # the index lists of gaps and an inconclusive reason hold commas: they
    # are quoted, so every row reads back as one key and one value
    hamiltonian = str(Path(__file__).resolve().parents[1] / "sample_fields" / "hamiltonian.vf")
    for argv, key, value in (
        (("gaps", "random-homogeneous:3"), "predicted_L_indices", str(list(range(1, 11)))),
        (("center-check", hamiltonian), "reason",
         "degenerate: det P = 0, the generic certificate does not apply"),
    ):
        _, out, _ = run(capsys, *argv, "--output", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["key", "value"] and all(len(row) == 2 for row in rows), argv
        assert dict(rows)[key] == value


def test_cost_follows_the_parts_present_not_the_declared_degree(tmp_path, capsys):
    # a quadratic declared of degree 20000 prints the quadratic's constants,
    # and a field whose only part is F_20000 is homogeneous with L_1 = L_2 =
    # 0; the series and the homogeneity test read only the parts present, so
    # neither costs time quadratic in the declared degree
    quadratic = "F 2 0 1\nG 0 2 1\n"
    want = run(capsys, "lyapunov", write_field(tmp_path, "q2.vf", "n 2\n" + quadratic), "-J", "2")
    path = write_field(tmp_path, "q20000.vf", "n 20000\n" + quadratic)
    t0 = time.process_time()
    assert run(capsys, "lyapunov", path, "-J", "2") == want
    assert time.process_time() - t0 < 2
    vf = parse_vector_field("n 20000\nF 20000 0 1\n")
    t0 = time.process_time()
    assert vf.is_homogeneous() and compute_series(vf, 2).L == {1: 0, 2: 0}
    assert time.process_time() - t0 < 2


def test_center_check_refuses_a_header_above_the_parts_present(tmp_path, capsys):
    # center-check sizes its work by the header's n, (n^2 + 4n - 4)/2
    # constants: at n = 20000 about 2*10^8 indices; gaps audits to
    # J = 2(n + 2), at a cost quadratic in n.  A header above the highest
    # nonzero part, or a field with none, is refused before any of it is
    # built; the child's address space is capped at 1 GiB, so building them
    # would end in MemoryError (exit 3) or worse, not in exit 1
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(bautin_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for command in ("center-check", "gaps"):
        for text, held in (("F 2 0 1\nG 0 2 1\n", "degree 2\n"), ("", "no nonzero part")):
            done = subprocess.run(
                [sys.executable, "-m", "bautin_lab", command, "-"],
                input="n 20000\n" + text, env=env, capture_output=True, text=True,
                timeout=120, preexec_fn=cap,
            )
            assert (done.returncode, done.stdout) == (1, ""), (command, done.stderr[-500:])
            assert "Traceback" not in done.stderr
            assert "degree 20000" in done.stderr and held in done.stderr, command
        for text, held in (("n 3\n", "no nonzero part"), ("n 4\nF 3 0 1\nF 4 0 0\n", "degree 3")):
            code, out, err = run(capsys, command, write_field(tmp_path, "f.vf", text))
            assert (code, out) == (1, "") and held in err, (command, text)
    with pytest.raises(UsageError, match="degree 5"):
        center_check(parse_vector_field("n 5\nG 0 2 1\n"))


def test_example_jl_prints_a_long_b4_exactly(capsys):
    # b4 = -(10^4301 + 1) / 10^4301: more digits than one int-to-text
    # conversion takes (4300)
    ones = "1" + "0" * 4300 + "1"
    code, out, _ = run(
        capsys, "example-jl", "--root", "1", f"--b4=-{ones}/1{'0' * 4301}", "--output", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["b4"] == f"-{ones}/1{'0' * 4301}"
    assert report["scaling_check"]["second_b4"] == f"-{ones}/2{'0' * 4301}"


def test_example_jl_csv(capsys):
    code, out, _ = run(capsys, "example-jl", "--root", "1", "--output", "csv")
    assert code == 0
    assert all(len(row) == 2 for row in csv.reader(io.StringIO(out)))
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("L8_over_b4_8_root1,-479335120.00617674649") for line in lines)
