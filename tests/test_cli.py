import json

import pytest
from helpers import cycle_dfa

from suffixconvex.cli import main
from suffixconvex.serialization import read_dfa, write_dfa
from suffixconvex.witnesses import make_dialect, make_witness


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witness_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "witness", "left-ideal", "4")
    assert code == 0
    assert read_dfa(out) == make_witness("left-ideal", 4)


def test_witness_with_dialect_and_output_file(capsys, tmp_path):
    target = tmp_path / "m4.json"
    code, out, _ = run_cli(
        capsys, "witness", "left-ideal-alt", "4", "--dialect", "a,-,-,d,e", "-o", str(target)
    )
    assert code == 0 and out == ""
    assert read_dfa(target.read_text()) == make_dialect(
        "left-ideal-alt", 4, ("a", None, None, "d", "e")
    )


def test_witness_dialect_names_the_document_as_the_report_labels_it(capsys):
    # every spelling of one letter map gives the report's label (a,-,c)
    for spelling in ("a,-,c", "a, -,c", "(a,,c)"):
        code, out, _ = run_cli(capsys, "witness", "left-ideal", "4", "--dialect", spelling)
        assert code == 0
        assert json.loads(out)["name"] == "left-ideal-4(a,-,c)"


def test_witness_below_minimum_exits_2(capsys):
    code, _, err = run_cli(capsys, "witness", "left-ideal", "3")
    assert code == 2
    assert "error:" in err


def _write(tmp_path, name, dfa):
    path = tmp_path / name
    path.write_text(write_dfa(dfa))
    return str(path)


def test_op_union_restricted_mismatch_exits_2(capsys, tmp_path):
    f1 = _write(tmp_path, "1.json", make_dialect("suffix-closed", 4, ("a", "b", "c", "d", "e")))
    f2 = _write(tmp_path, "2.json", make_dialect("suffix-closed", 4, ("a", "e", "f", "d", "b")))
    code, _, err = run_cli(capsys, "op", "union", f1, f2)
    assert code == 2
    assert "unrestricted" in err


def test_op_union_unrestricted(capsys, tmp_path):
    f1 = _write(tmp_path, "1.json", make_dialect("suffix-closed", 4, ("a", "b", "c", "d", "e")))
    f2 = _write(tmp_path, "2.json", make_dialect("suffix-closed", 4, ("a", "e", "f", "d", "b")))
    code, out, _ = run_cli(capsys, "op", "union", f1, f2, "--unrestricted")
    assert code == 0
    result = read_dfa(out)
    assert result.alphabet == ("a", "b", "c", "d", "e", "f")


def test_op_star_single_operand(capsys, tmp_path):
    f1 = _write(tmp_path, "1.json", make_dialect("suffix-closed", 4, ("a", None, None, "d", "e")))
    code, out, _ = run_cli(capsys, "op", "star", f1)
    assert code == 0
    read_dfa(out)
    code, _, err = run_cli(capsys, "op", "star", f1, f1)
    assert code == 2


def test_op_unrestricted_needs_a_boolean_operation(capsys, tmp_path):
    f1 = _write(tmp_path, "1.json", make_witness("left-ideal", 4))
    for operation in ("star", "reverse", "complement"):
        code, out, err = run_cli(capsys, "op", operation, f1, "--unrestricted")
        assert code == 2 and out == ""
        assert "unrestricted" in err
    # concat always works over the union alphabet: the flag changes nothing
    plain = run_cli(capsys, "op", "concat", f1, f1)
    assert plain[0] == 0
    assert run_cli(capsys, "op", "concat", f1, f1, "--unrestricted") == plain


def test_op_concat_requires_two(capsys, tmp_path):
    f1 = _write(tmp_path, "1.json", make_witness("suffix-free-3", 4))
    code, _, err = run_cli(capsys, "op", "concat", f1)
    assert code == 2


def test_measure_commands(capsys, tmp_path):
    f = _write(tmp_path, "w.json", make_witness("left-ideal", 4))
    code, out, _ = run_cli(capsys, "measure", "complexity", f)
    assert code == 0 and json.loads(out) == {"complexity": 4}

    code, out, _ = run_cli(capsys, "measure", "semigroup", f)
    assert json.loads(out) == {"semigroup_size": 67, "truncated": False}

    code, out, _ = run_cli(capsys, "measure", "quotients", f)
    assert json.loads(out) == {"quotient_complexities": [4, 4, 4, 4]}

    code, out, _ = run_cli(capsys, "measure", "reverse-complexity", f)
    assert json.loads(out) == {"reverse_complexity": 9}

    code, out, _ = run_cli(capsys, "measure", "atoms", f)
    atoms = json.loads(out)["atoms"]
    assert len(atoms) == 9 and atoms[0] == []

    code, out, _ = run_cli(capsys, "measure", "atom-complexities", f)
    per_atom = json.loads(out)["atom_complexities"]
    assert {"atom": [1], "complexity": 13} in per_atom


def test_measure_semigroup_cap(capsys, tmp_path):
    f = _write(tmp_path, "w.json", make_witness("left-ideal", 5))
    code, out, _ = run_cli(capsys, "measure", "semigroup", f, "--cap", "50")
    assert json.loads(out) == {"semigroup_size": 50, "truncated": True}


def test_non_positive_semigroup_cap_exits_2(capsys, tmp_path):
    f = _write(tmp_path, "w.json", make_witness("left-ideal", 5))
    for cap, problem in (("0", "a positive integer"), ("-3", "a positive integer"), ("x", "an integer")):
        for argv in (
            ("measure", "semigroup", f, "--cap", cap),
            ("verify", "--family", "left-ideal", "--quantity", "semigroup", "--cap", cap),
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(list(argv))
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{cap!r} is not {problem}" in captured.err


def test_cap_with_another_measurement_exits_2(capsys, tmp_path):
    f = _write(tmp_path, "w.json", make_witness("left-ideal", 4))
    for what in ("complexity", "quotients", "atoms", "atom-complexities", "reverse-complexity"):
        code, out, err = run_cli(capsys, "measure", what, f, "--cap", "1")
        assert code == 2 and out == ""
        assert "--cap applies to the semigroup measurement only" in err
        assert run_cli(capsys, "measure", what, f)[0] == 0
    # without --cap, semigroup counts up to the default cap
    code, out, _ = run_cli(capsys, "measure", "semigroup", f)
    assert code == 0 and json.loads(out) == {"semigroup_size": 67, "truncated": False}


def test_measure_semigroup_over_state_bound_exits_2(capsys, tmp_path):
    # minimal with 257 states, one more than a byte-packed element can hold
    f = _write(tmp_path, "cycle.json", cycle_dfa(257))
    code, out, err = run_cli(capsys, "measure", "semigroup", f)
    assert code == 2 and out == ""
    assert "bound of 256 states" in err


def test_classify_output(capsys, tmp_path):
    f = _write(tmp_path, "w.json", make_witness("suffix-closed", 4))
    code, out, _ = run_cli(capsys, "classify", f)
    assert code == 0
    report = json.loads(out)
    assert report["is_suffix_closed"] is True
    assert report["is_left_ideal"] is False
    assert report["counterexamples"]["left-ideal"] == ["e"]


def test_dot_output(capsys, tmp_path):
    f = _write(tmp_path, "w.json", make_witness("regular", 3))
    code, out, _ = run_cli(capsys, "dot", f)
    assert code == 0
    assert out.startswith("digraph dfa {")
    assert '0 -> 0 [label="c"];' in out


# a witness document with one more key, an array nested 100,000 deep: past
# the recursion guard of the JSON decoder on every supported Python
DEEP_DOCUMENT = write_dfa(make_witness("left-ideal", 4))[:-2] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}"


# the same witness with a 100,000-character string as its initial state
LONG_INITIAL_DOCUMENT = write_dfa(make_witness("left-ideal", 4)).replace('"initial": 0', f'"initial": "{"x" * 100_000}"')


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"states": 2}', "missing field"),
        (DEEP_DOCUMENT, "nested too deeply"),
        (LONG_INITIAL_DOCUMENT, "initial: state 'xxx"),
    ],
    ids=["missing-field", "nested-too-deeply", "long-initial"],
)
def test_bad_document_exits_2(capsys, tmp_path, text, fragment):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "measure", "complexity", str(path))
    assert code == 2
    assert fragment in err and "Traceback" not in err and len(err.encode()) < 600


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify", str(tmp_path / "absent.json"))
    assert code == 2


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["op", "frobnicate", "x.json"])
    assert exc.value.code == 2


def test_verify_selection_table(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "suffix-free-3", "--quantity", "star", "--n", "4..6"
    )
    assert code == 0
    assert "star" in out
    assert "passed 3, failed 0, skipped 0" in out


def test_verify_structured_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family", "left-ideal",
        "--quantity", "product-restricted",
        "--n", "4..5",
        "--m", "4..4",
        "--format", "structured",
        "--report", str(target),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    values = {(e["m"], e["n"]): e["measured"] for e in doc["entries"]}
    assert values == {(4, 4): 7, (4, 5): 8}
    assert json.loads(target.read_text()) == doc


def test_verify_skip_rows_reported(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "suffix-free-3", "--quantity", "union", "--n", "4..4", "--m", "4..4"
    )
    assert code == 0
    assert "SKIP" in out and "(4,4)" in out.replace("(m,n)=(4,4)", "(4,4)")


def test_verify_beyond_range_is_skipped(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "suffix-free-3", "--quantity", "star", "--n", "9..9"
    )
    assert code == 0
    assert "beyond the configured resource range" in out


def test_verify_range_arguments(capsys):
    # one value is a range of one size
    code, out, _ = run_cli(capsys, "verify", "--family", "suffix-free-3", "--quantity", "star", "--n", "5")
    assert code == 0
    assert "passed 1, failed 0, skipped 0" in out
    for text, problem in (("4..x", "is not of the form A..B"), ("5..3", "is empty")):
        code, out, err = run_cli(capsys, "verify", "--n", text)
        assert code == 2 and out == ""
        assert f"error: range {text!r} {problem}" in err


def test_verify_selection_with_no_row_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--family", "suffix-free-n")
    assert code == 2 and out == ""
    assert err.startswith("error: no claim row matches")


def test_verify_unknown_quantity_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--quantity", "entropy")
    assert code == 2
