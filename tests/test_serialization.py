import json

import pytest
from helpers import dfa_corpus

from suffixconvex.automata import Dfa
from suffixconvex.errors import DocumentError
from suffixconvex.serialization import export_dot, read_dfa, write_dfa
from suffixconvex.witnesses import FAMILIES, MIN_N, make_dialect, make_witness


def test_write_matches_definition_expansion():
    doc = json.loads(write_dfa(make_witness("left-ideal", 4), name="left-ideal-4"))
    assert doc["name"] == "left-ideal-4"
    assert doc["states"] == 4
    assert doc["alphabet"] == ["a", "b", "c", "d", "e"]
    assert doc["transitions"]["a"] == [0, 2, 3, 1]
    assert doc["transitions"]["e"] == [1, 1, 1, 1]
    assert doc["initial"] == 0
    assert doc["finals"] == [3]
    assert doc["notation"]["a"] == "(1,2,3)"
    assert doc["notation"]["e"] == "(Q->1)"


def test_round_trip_witnesses_and_dialects():
    for family in FAMILIES:
        w = make_witness(family, MIN_N[family] + 1)
        assert read_dfa(write_dfa(w)) == w
    d = make_dialect("suffix-closed", 5, ("a", None, None, "d", "e"))
    assert read_dfa(write_dfa(d)) == d


def test_round_trip_random(tmp_path):
    for d in dfa_corpus(seed=97, count=20, max_n=5):
        assert read_dfa(write_dfa(d)) == d


def test_read_without_notation():
    text = json.dumps(
        {
            "name": "toy",
            "states": 2,
            "alphabet": ["a"],
            "transitions": {"a": [1, 0]},
            "initial": 0,
            "finals": [1],
        }
    )
    d = read_dfa(text)
    assert d.n == 2 and d.delta["a"].image == (1, 0)


@pytest.mark.parametrize(
    "mutation,fragment",
    [
        (lambda doc: doc["transitions"]["a"].__setitem__(2, 7), "outside 0..3"),
        (lambda doc: doc["transitions"]["a"].pop(), "length 3, expected 4"),
        (lambda doc: doc.pop("finals"), "missing field 'finals'"),
        (lambda doc: doc.__setitem__("initial", 9), "outside 0..3"),
        (lambda doc: doc.__setitem__("finals", [0, 11]), "finals"),
        (lambda doc: doc["transitions"].pop("a"), "must match the alphabet"),
        (lambda doc: doc.__setitem__("alphabet", ["a", "a", "b", "c", "d"]), "unique"),
        (lambda doc: doc.__setitem__("finals", [3, 3]), "finals: states must be unique"),
        (lambda doc: doc["notation"].__setitem__("a", "(1,2)"), "expands to"),
        (lambda doc: doc["notation"].__setitem__("a", "((1,2)"), "notation['a']"),
        # an empty member of a collapse's source set is malformed, not dropped
        (
            lambda doc: doc.update(
                transitions={**doc["transitions"], "a": [1, 1, 2, 3]},
                notation={**doc["notation"], "a": "({0,}->1)"},
            ),
            "notation['a']: expected a state number in ({0,}->1), got ''",
        ),
        (lambda doc: doc.__setitem__("states", 0), "positive integer"),
        # a mutation that returns text edits the document as written: a key
        # repeated in any object is rejected, not overwritten by the last one
        (lambda doc: json.dumps(doc)[:-1] + ', "finals": [0]}', "repeated key 'finals'"),
        (
            lambda doc: json.dumps(doc).replace('"notation": {', '"notation": {"a": "(0->1)", '),
            "repeated key 'a'",
        ),
        (
            lambda doc: json.dumps(doc).replace('"transitions": {', '"transitions": {"e": [0, 0, 0, 0], '),
            "repeated key 'e'",
        ),
        # a key the reader ignores is still decoded: an array nested 100,000
        # deep, past the decoder's recursion guard, is malformed, not a crash
        (
            lambda doc: json.dumps(doc)[:-1] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "document: nested too deeply",
        ),
    ],
)
def test_read_rejects_bad_documents(mutation, fragment):
    doc = json.loads(write_dfa(make_witness("left-ideal", 4)))
    text = mutation(doc)
    if not isinstance(text, str):
        text = json.dumps(doc)
    with pytest.raises(DocumentError) as err:
        read_dfa(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("states", True, "states:"),
        ("transitions", {"a": [False]}, "transitions['a'][0]:"),
        ("initial", False, "initial:"),
        ("finals", [False], "finals:"),
    ],
)
def test_read_rejects_booleans_as_integers(field, value, fragment):
    doc = {"states": 1, "alphabet": ["a"], "transitions": {"a": [0]}, "initial": 0, "finals": [0]}
    read_dfa(json.dumps(doc))
    doc[field] = value
    with pytest.raises(DocumentError) as err:
        read_dfa(json.dumps(doc))
    assert str(err.value).startswith(fragment)


@pytest.mark.parametrize(
    "row,message",
    [
        ([0, -1, 9, 0], "transitions['a'][1]: state -1 outside 0..3"),
        ([0, 1, 2, 4], "transitions['a'][3]: state 4 outside 0..3"),
        ([0, 1.0, -1, 0], "transitions['a'][1]: state 1.0 outside 0..3"),
        ([0, 1, "2", -3], "transitions['a'][2]: state '2' outside 0..3"),
        ([3, 2, 1, None], "transitions['a'][3]: state None outside 0..3"),
        ([True, 0, 0, 0], "transitions['a'][0]: state True outside 0..3"),
    ],
)
def test_read_reports_the_first_bad_transition_entry(row, message):
    # a row is checked as a whole; a bad one is reported at its first bad entry
    doc = {"states": 4, "alphabet": ["a"], "transitions": {"a": row}, "initial": 0, "finals": []}
    with pytest.raises(DocumentError) as err:
        read_dfa(json.dumps(doc))
    assert str(err.value) == message


def test_read_rejects_non_json():
    with pytest.raises(DocumentError):
        read_dfa("not json at all {")


def test_dot_regular_witness():
    dot = export_dot(make_witness("regular", 3))
    assert dot.count("doublecircle") == 1
    assert '0 -> 0 [label="c"];' in dot
    assert '0 -> 1 [label="a,b"];' in dot
    assert "__start -> 0;" in dot


def test_dot_suffix_free_dead_state_loop():
    dot = export_dot(make_witness("suffix-free-3", 5))
    assert '4 -> 4 [label="a,b,c"];' in dot


def test_dot_single_state_no_edges():
    dot = export_dot(Dfa(1, (), {}, 0, frozenset({0})))
    assert "->" not in dot.replace("__start -> 0;", "")
    assert dot.count("doublecircle") == 1


def test_dot_escapes_quotes_and_backslashes_in_labels():
    d = read_dfa(write_dfa(Dfa(1, ('a"b', "x\\"), {'a"b': (0,), "x\\": (0,)}, 0, frozenset())))
    assert d.alphabet == ('a"b', "x\\")
    assert '  0 -> 0 [label="a\\"b,x\\\\"];' in export_dot(d).splitlines()


def test_dot_deterministic():
    d = make_witness("left-ideal", 5)
    assert export_dot(d) == export_dot(d)
