import hashlib
import weakref
from dataclasses import replace

import pytest
from helpers import witness_atom_items

from suffixconvex import verify
from suffixconvex.automata import complexity
from suffixconvex.errors import InputError
from suffixconvex.operations import BOOL_OPS, boolean_restricted, boolean_unrestricted, reverse
from suffixconvex.verify import (
    ComplexityReport,
    ReportEntry,
    report_json_chunks,
    report_to_table,
    run_verification,
)
from suffixconvex.serialization import write_dfa
from suffixconvex.witnesses import CLAIMS, FAMILIES, MIN_N, make_dialect, make_witness


def test_family_and_quantity_selection():
    report = run_verification(families=["suffix-closed"], quantities=["star"])
    assert {e.family for e in report.entries} == {"suffix-closed"}
    assert {e.quantity for e in report.entries} == {"star"}
    assert report.failed == 0
    with pytest.raises(InputError):
        run_verification(families=["prefix-closed"])
    with pytest.raises(InputError):
        run_verification(quantities=["entropy"])


@pytest.mark.parametrize(
    "selection",
    [
        dict(families=["suffix-free-n"]),  # a family with no claim
        dict(families=["regular"], quantities=["atom"]),  # no atom claim for the family
        dict(families=["left-ideal"], n_range=(0, 2)),  # every size below the family's least
    ],
)
def test_selection_with_no_row_is_rejected(selection):
    with pytest.raises(InputError, match="no claim row matches"):
        run_verification(**selection)


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


def test_a_run_builds_each_operand_and_product_once(monkeypatch):
    builds, products, alive_at_build, sizes = [], [], [], []
    operands = []  # (family, weak reference) per operand built
    make_w, make_d = verify.make_witness, verify.make_dialect
    build_product, size = verify._boolean_product, verify.complexity

    def counted_product(d1, d2, mode):
        alive_at_build.append(sum(ref() is not None for ref in products))
        product = build_product(d1, d2, mode)
        products.append(weakref.ref(product))
        return product

    def counted_operand(family, n, pi, d):
        # the memo drops a family's operands before the next family's first
        assert {f for f, ref in operands if ref() is not None} <= {family}
        builds.append((family, n, pi))
        operands.append((family, weakref.ref(d)))
        return d

    monkeypatch.setattr(
        verify, "make_witness", lambda f, n: counted_operand(f, n, None, make_w(f, n))
    )
    monkeypatch.setattr(
        verify, "make_dialect", lambda f, n, pi: counted_operand(f, n, pi, make_d(f, n, pi))
    )
    monkeypatch.setattr(verify, "_boolean_product", counted_product)
    monkeypatch.setattr(verify, "complexity", lambda d: sizes.append(d.n) or size(d))
    count = verify.reverse_complexity
    monkeypatch.setitem(verify._UNARY, "reverse", lambda d: sizes.append(d.n) or count(d))
    report = run_verification()
    # labels of full-witness rows read the memo: nothing is built for a label
    assert len(builds) == len(set(builds)) == 111
    # one product per (family, mode, m, n, dialect pair) serves all four operations
    boolean_rows = [e for e in report.entries if e.quantity in BOOL_OPS and e.measured is not None]
    assert len(products) == 97 and len(boolean_rows) == 388
    # a product lives only while its group's grid (at most 3 x 3 pairs) is
    # measured, and none outlives the run
    assert max(alive_at_build) <= 8
    assert all(ref() is None for ref in products)
    assert all(ref() is None for _, ref in operands)
    # and each row still takes its own complexity, or its reversal count
    sized = {"reverse", "star", "product", *BOOL_OPS}
    assert len(sizes) == sum(e.quantity in sized and e.measured is not None for e in report.entries)
    first = (set(builds), len(builds), len(products), len(sizes))
    for log in (builds, products, operands, sizes):
        log.clear()
    # a second run builds everything again: no memo outlives its run
    run_verification()
    assert (set(builds), len(builds), len(products), len(sizes)) == first


def test_widened_boolean_grid_matches_products_built_directly(monkeypatch):
    # the pinned digest covers the default ranges only; beyond them the
    # memo's keys (modes, dialects, overrides) are checked against products
    # built from scratch.  One claim of a group names its own dialect pair,
    # so products must be told apart by their dialects too.
    families = ("left-ideal", "suffix-free-3", "suffix-free-5")
    widened = tuple(
        replace(c, rows=(4, 8)) if c.family in families and c.tag in BOOL_OPS else c
        for c in CLAIMS
    )
    widened = tuple(
        replace(c, dialect2=c.dialect1)
        if (c.family, c.tag, c.mode) == ("left-ideal", "intersection", "restricted") else c
        for c in widened
    )
    monkeypatch.setattr(verify, "CLAIMS", widened)
    report = run_verification(families=families, quantities=BOOL_OPS)
    claims = {(c.family, c.tag, c.mode): c for c in widened}
    public = {"restricted": boolean_restricted, "unrestricted": boolean_unrestricted}

    def operand(family, n, dialect):
        return make_witness(family, n) if dialect is None else make_dialect(family, n, dialect)

    measured = [e for e in report.entries if e.measured is not None]
    for e in measured:
        c = claims[e.family, e.quantity, e.mode]
        d1 = operand(e.family, e.m, c.dialect1)
        d2 = operand(e.family, e.n, c.dialect2_at(e.m, e.n))
        assert e.measured == complexity(public[e.mode](d1, d2, e.quantity)), e
    # 25 (m, n) rows per claim, suffix-free-3 excluding (4, 4)
    assert len(measured) == 3 * 2 * 4 * 25 - 8


def test_reverse_rows_count_what_the_reversal_minimizes_to(monkeypatch):
    # every reverse row of the default profile, counted as the harness
    # counts it and by minimizing the reversal
    operands = []
    count = verify.reverse_complexity
    monkeypatch.setitem(verify._UNARY, "reverse", lambda d: operands.append(d) or count(d))
    report = run_verification(quantities=["reverse"])
    assert len(operands) == report.passed == 24 and report.failed == 0
    for d in operands:
        assert count(d) == complexity(reverse(d))


def test_every_record_one_size_past_its_range(monkeypatch):
    # every formula checked one size past the default profile, through the
    # same row source and row measure: the top of each record's rows is
    # raised by one, so no row is beyond its range
    widened = tuple(c if c.rows is None else replace(c, rows=(c.rows[0], c.rows[1] + 1))
                    for c in CLAIMS)
    monkeypatch.setattr(verify, "CLAIMS", widened)
    report = run_verification()
    assert report.failed == 0
    claims = {(c.family, c.tag, c.mode): c for c in widened}

    def claim_of(e):
        return claims[e.family, "atom" if e.quantity.startswith("atom(") else e.quantity, e.mode]

    for e in report.entries:
        if e.status == "SKIP":
            # the record's own exclusion, or the semigroups of the ideal
            # streams at n=8, whose n^(n-1) + n-1 exceeds the default cap
            reasons = {claim_of(e).exclude(e.m, e.n), "semigroup enumeration truncated at the cap"}
            assert e.reason and e.reason in reasons, e
    passed_at_top = {
        claim_of(e).tag for e in report.entries
        if e.status == "PASS" and {e.m, e.n} <= {None, claim_of(e).rows[1]}
    }
    assert passed_at_top == {c.tag for c in widened if c.rows is not None}


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
    assert '"failed": 1' in "".join(report_json_chunks(report))


def test_json_entries_carry_pass_flag():
    import json

    report = run_verification(families=["suffix-free-3"], quantities=["union"], n_range=(4, 5), m_range=(4, 4))
    doc = json.loads("".join(report_json_chunks(report)))
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


def test_exclusion_skips_carry_their_claims_reason(default_report):
    # every default SKIP row is a claim's exclusion: none is beyond its
    # claim's range and none is a truncated semigroup
    claims = {(c.family, c.tag, c.mode): c for c in CLAIMS}
    skips = [e for e in default_report.entries if e.status == "SKIP"]
    assert skips
    for e in skips:
        claim = claims[(e.family, e.quantity, e.mode)]
        lo, hi = claim.rows
        assert lo <= e.n <= hi and (e.m is None or lo <= e.m <= hi)
        assert e.measured is None
        assert e.reason and e.reason == claim.exclude(e.m, e.n)


REPORT_SHA256 = "7046badef586d424524c0ff01943a676227e80aeb8623587f130ca6fa37555b3"
WITNESS_SHA256 = "2ca611e41133b8598384b576be54d1b51e78121a243773bd078187b6baae84c4"


def _witness_documents() -> str:
    """write_dfa of every family's witness at MIN_N..8, then of every
    dialect a claim names, at each size of its rows."""
    docs = [write_dfa(make_witness(f, n), f) for f in FAMILIES for n in range(MIN_N[f], 9)]
    for c in CLAIMS:
        if c.rows is None:
            continue
        sizes = range(max(c.rows[0], MIN_N[c.family]), c.rows[1] + 1)
        for n in sizes:
            dialects = [c.dialect1]
            if c.mode is not None:
                dialects += [c.dialect2_at(m, n) for m in sizes]
            docs += [write_dfa(make_dialect(c.family, n, pi), c.family)
                     for pi in dialects if pi is not None]
    return "".join(docs)


def test_default_report_and_witness_documents_are_pinned(default_report):
    # a refactor leaves the default report unchanged, entry for entry, and
    # the witness documents byte-identical; a change that alters either on
    # purpose updates its digest and says why
    unversioned = replace(default_report, version="")
    report = "".join(report_json_chunks(unversioned)) + report_to_table(unversioned)
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256
    documents = _witness_documents()
    assert hashlib.sha256(documents.encode()).hexdigest() == WITNESS_SHA256
