import json
from fractions import Fraction

from bautin_lab.cli import main


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


def test_missing_file_is_bad_input(capsys):
    code, out, err = run(capsys, "lyapunov", "missing.vf")
    assert code == 1 and out == "" and "missing.vf" in err


def test_parse_error_is_bad_input(tmp_path, capsys):
    path = write_field(tmp_path, "bad.vf", "n 2\nF 5 0 1\n")
    code, _, err = run(capsys, "lyapunov", path)
    assert code == 1 and "line 2" in err
    # float mode rejects what exact mode rejects, instead of a nan/inf verdict
    for coeff in ("nan", "inf", "1/0"):
        path = write_field(tmp_path, "bad.vf", f"n 3\nF 3 0 {coeff}\n")
        code, out, err = run(capsys, "center-check", path, "--mode", "float")
        assert code == 1 and out == "" and "line 2" in err, coeff


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
    # gap verification needs exact arithmetic, also for a generated field
    code, _, err = run(capsys, "gaps", "random-homogeneous:4", "--seed", "3", "--mode", "float")
    assert code == 1 and "exact" in err


def test_gaps_rejects_non_homogeneous(capsys):
    code, _, err = run(capsys, "gaps", "random:3", "--seed", "1")
    assert code == 1 and "homogeneous" in err


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


def test_example_jl_single_root_json(capsys):
    code, out, _ = run(capsys, "example-jl", "--root", "2", "--precision", "60", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "bautin-lab/1"
    assert payload["root_index"] == 2
    assert payload["L"]["8"].startswith("-2.1597168095")
    # JSON carries exact strings, never binary floats
    assert isinstance(payload["L8_over_b4_8"], str)


def test_example_jl_table_both_roots(capsys):
    code, out, _ = run(capsys, "example-jl", "--precision", "60")
    assert code == 0
    assert "root 1" in out and "root 2" in out
    assert "scaling check" in out


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("n 3\nF 3 0 1\n"))
    code, out, _ = run(capsys, "lyapunov", "-", "-J", "1")
    assert code == 0 and out.strip() == "L_1 = 3/8"


def test_center_check_float_mode_resolved_cubic(tmp_path, capsys):
    from fractions import Fraction

    from bautin_lab.cubic_family import (
        family_vector_field,
        find_sigma_roots,
        substitution_chain,
    )
    from bautin_lab.fields import serialize_vector_field

    s1, _ = find_sigma_roots(60)
    vf = family_vector_field(substitution_chain(Fraction(-1), s1, 60), 60)
    path = tmp_path / "resolved.vf"
    path.write_text(serialize_vector_field(vf), encoding="utf-8")
    code, out, _ = run(
        capsys, "center-check", str(path), "--mode", "float", "--precision", "60"
    )
    assert code == 5
    assert "weak_focus_order = 8" in out


def test_gaps_default_budget_follows_degree(capsys):
    # without -J the audit range is 2(n+2); for n=6 that reaches L_10 and
    # beyond, far past the fixed default of the other commands
    code, out, _ = run(capsys, "gaps", "random-homogeneous:6", "--seed", "2")
    assert code == 0
    assert "predicted_L_indices = [5, 10, 15]" in out


def test_example_jl_csv(capsys):
    code, out, _ = run(capsys, "example-jl", "--root", "1", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("L8_over_b4_8_root1,-479335120.00617674649") for line in lines)
