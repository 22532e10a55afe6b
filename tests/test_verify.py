import pytest

from suffixconvex import verify
from suffixconvex.errors import InputError
from suffixconvex.verify import (
    ComplexityReport,
    ReportEntry,
    report_to_json,
    report_to_table,
    run_verification,
    witness_atom_items,
)
from suffixconvex.witnesses import CLAIMS, expected


def test_family_and_quantity_selection():
    report = run_verification(families=["suffix-closed"], quantities=["star"])
    assert {e.family for e in report.entries} == {"suffix-closed"}
    assert {e.quantity for e in report.entries} == {"star"}
    assert report.failed == 0
    with pytest.raises(InputError):
        run_verification(families=["prefix-closed"])
    with pytest.raises(InputError):
        run_verification(quantities=["entropy"])


def test_semigroup_cap_is_checked_before_any_row(monkeypatch):
    message = "semigroup cap must be a positive integer, got 0"
    # no semigroup row selected: the cap is still rejected
    with pytest.raises(InputError, match=message):
        run_verification(families=["left-ideal"], quantities=["star"], semigroup_cap=0)

    # semigroup rows selected: rejected before the first row is measured
    def measure(*args):
        raise AssertionError("a row was measured")

    monkeypatch.setattr(verify, "_measure", measure)
    with pytest.raises(InputError, match=message):
        run_verification(families=["left-ideal"], quantities=["star", "semigroup"],
                         semigroup_cap=0)


def test_mode_specific_quantity_selection():
    report = run_verification(families=["suffix-closed"], quantities=["union-unrestricted"])
    assert {(e.quantity, e.mode) for e in report.entries} == {("union", "unrestricted")}


def test_atom_quantity_aliases():
    for alias in ("atom", "atom-complexity", "atom-complexities"):
        report = run_verification(
            families=["left-ideal"], quantities=[alias], n_range=(4, 4)
        )
        assert len(report.entries) == 9
        assert all(e.quantity.startswith("atom({") or e.quantity == "atom({})" for e in report.entries)


def test_reports_are_deterministic():
    kwargs = dict(families=["suffix-free-3"], n_range=(4, 5), m_range=(4, 5))
    assert run_verification(**kwargs) == run_verification(**kwargs)


def test_witness_atom_items_use_definition_coordinates():
    items = witness_atom_items("suffix-free-5", 5)
    keys = {frozenset(k) for k, _, _ in items}
    # definition coordinates: the initial state is 0, the dead state n-1;
    # every non-empty key is {}, {0}, or a subset of the middle states
    assert frozenset({0}) in keys
    assert frozenset() in keys
    assert all(k == frozenset({0}) or 0 not in k for k in keys)
    assert all(4 not in k for k in keys)
    assert len(keys) == 9


def test_truncated_semigroup_is_a_skip_row():
    report = run_verification(
        families=["left-ideal"], quantities=["semigroup"], n_range=(5, 5), semigroup_cap=50
    )
    [entry] = report.entries
    assert entry.status == "SKIP"
    assert entry.reason == "semigroup enumeration truncated at the cap"
    assert entry.measured == 50 and entry.expected is None
    assert report.ok


def test_report_ok_reflects_failures():
    entry = ReportEntry("x", "star", None, ("(a)",), None, 4, 5, 6, "FAIL")
    report = ComplexityReport((entry,), 0, 1, 0, "0")
    assert not report.ok
    assert "FAIL" in report_to_table(report)
    assert '"failed": 1' in report_to_json(report)


def test_json_entries_carry_pass_flag():
    import json

    report = run_verification(families=["suffix-free-3"], quantities=["union"], n_range=(4, 5), m_range=(4, 4))
    doc = json.loads(report_to_json(report))
    for raw, entry in zip(doc["entries"], report.entries):
        assert raw["pass"] == (entry.status == "PASS")
        assert raw["pass"] == (raw["expected"] == raw["measured"] and raw["expected"] is not None)


TABLE1_CELLS = [
    ("semigroup", None),
    ("reverse", None),
    ("star", None),
    ("product", "restricted"),
    ("product", "unrestricted"),
    ("union", "restricted"),
    ("union", "unrestricted"),
    ("symdiff", "restricted"),
    ("symdiff", "unrestricted"),
    ("difference", "restricted"),
    ("difference", "unrestricted"),
    ("intersection", "restricted"),
    ("intersection", "unrestricted"),
]

COLUMNS = {
    "left-ideal": ("left-ideal",),
    "suffix-closed": ("suffix-closed",),
    "suffix-free": ("suffix-free-5", "suffix-free-3"),
}


def test_every_table_cell_has_a_report_entry(default_report):
    for column, families in COLUMNS.items():
        for quantity, mode in TABLE1_CELLS:
            hits = [
                e
                for e in default_report.entries
                if e.family in families and e.quantity == quantity and (mode is None or e.mode == mode)
            ]
            assert hits, (column, quantity, mode)
            assert all(e.status in ("PASS", "SKIP") for e in hits)


def test_each_claim_is_stated_once():
    keys = [(c.family, c.quantity) for c in CLAIMS]
    assert len(keys) == len(set(keys))


def test_exclusion_skips_carry_the_reason_expected_raises(default_report):
    # every default SKIP row is a claim's exclusion: none is beyond its
    # claim's range and none is a truncated semigroup
    claims = {(c.family, c.tag, c.mode): c for c in CLAIMS}
    skips = [e for e in default_report.entries if e.status == "SKIP"]
    assert skips
    for e in skips:
        lo, hi = claims[(e.family, e.quantity, e.mode)].rows
        assert lo <= e.n <= hi and (e.m is None or lo <= e.m <= hi)
        assert e.measured is None
        quantity = f"{e.quantity}-{e.mode}" if e.mode else e.quantity
        with pytest.raises(InputError) as raised:
            expected(e.family, quantity, e.m, e.n)
        assert str(raised.value) == e.reason
