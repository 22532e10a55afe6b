"""Verification harness: measure every claimed complexity value and
compare against the closed forms.

The claims live in one table, ``witnesses.CLAIMS``: each record names
its formula, the exact dialect pair it calls for, the sizes to measure,
and the rows it excludes.  The harness walks that table, measures each
row through the language operations and measures modules, and takes
every expectation from the record's formula, an atom claim's once per
atom key.  Excluded rows are reported as SKIP with the record's reason,
rows beyond a record's range as SKIP without being attempted.

One run builds each thing it measures once.  A memo that lives for one
``run_verification`` call holds the operands of the family being
measured by (family, n, dialect), dropped when the family is done;
every semigroup size by the witness's letter images; and the direct
product of each operand pair of the boolean group being measured: the
four boolean claims of one family and mode read their operations from
that one product, and it is dropped when the group is done.  Every row
still takes its own ``complexity``, and a full-witness row is labelled
with the letters of the witness the memo holds.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import groupby
from typing import Callable

from . import __version__
from .automata import Dfa, complexity, reachable_states
from .errors import InputError
from .measures import (
    DEFAULT_SEMIGROUP_CAP,
    atom_complexities,
    atoms,
    check_semigroup_cap,
    syntactic_semigroup_size,
)
from .operations import (
    _boolean_product,
    concat,
    format_letter_map,
    reverse,
    star,
)
from .witnesses import (
    CLAIMS,
    FAMILIES,
    MIN_N,
    Claim,
    make_dialect,
    make_witness,
)

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

@dataclass(frozen=True)
class ReportEntry:
    family: str
    quantity: str
    mode: str | None
    dialects: tuple[str, ...]
    m: int | None
    n: int
    expected: int | None
    measured: int | None
    status: str
    reason: str = ""


@dataclass(frozen=True)
class ComplexityReport:
    entries: tuple[ReportEntry, ...]
    passed: int
    failed: int
    skipped: int
    version: str

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _atom_items(witness: Dfa, claim: Claim, n: int) -> list[tuple[frozenset, int, int]]:
    """(definition key, measured complexity, formula value) per non-empty
    atom of the witness at n, the formula read from the atom claim.

    Keys from the canonically renumbered minimal DFA are mapped back to
    the definition's state numbering, where the formula case splits live.
    """
    order = reachable_states(witness)  # canonical index -> definition state
    items = []
    for key, measured in atom_complexities(witness).items():
        definition_key = frozenset(order[i] for i in key)
        items.append((definition_key, measured, claim.formula(n, definition_key)))
    items.sort(key=lambda item: (len(item[0]), sorted(item[0])))
    return items


def _names(claim: Claim) -> set[str]:
    if claim.tag == "atom":
        return {"atom", "atom-complexity", "atom-complexities"}
    return {claim.tag, claim.quantity}


def _normalize_quantities(quantities) -> set[str] | None:
    if not quantities:
        return None
    known = set().union(*map(_names, CLAIMS))
    for q in quantities:
        if q not in known:
            raise InputError(f"unknown quantity {q!r}")
    return set(quantities)


def run_verification(
    families=None,
    quantities=None,
    n_range: tuple[int, int] | None = None,
    m_range: tuple[int, int] | None = None,
    semigroup_cap: int = DEFAULT_SEMIGROUP_CAP,
) -> ComplexityReport:
    """Measure the selected claims and compare against their formulas.

    Defaults run every claim at its configured resource range; requested
    values beyond a claim's range are reported as SKIP rather than
    attempted.  Claims without a range are never measured.  A
    semigroup_cap below 1 is rejected before anything is measured.
    """
    check_semigroup_cap(semigroup_cap)
    if families:
        for f in families:
            if f not in FAMILIES:
                raise InputError(f"unknown family {f!r}")
    selected_q = _normalize_quantities(quantities)
    selected = [
        claim for claim in CLAIMS
        if claim.rows is not None
        and (not families or claim.family in families)
        and (selected_q is None or _names(claim) & selected_q)
    ]
    memo = _Memo(semigroup_cap)
    entries: list[ReportEntry] = []
    # a family's claims are adjacent in CLAIMS, and so are the four
    # boolean claims of one of its modes
    for _, claims in groupby(selected, key=lambda claim: claim.family):
        for _, group in groupby(claims, key=lambda claim: claim.mode):
            for claim in group:
                entries.extend(_run_claim(claim, n_range, m_range, memo))
            memo.products.clear()
        memo.operands.clear()

    entries.sort(
        key=lambda e: (
            e.family,
            e.quantity,
            e.mode or "",
            e.m if e.m is not None else -1,
            e.n,
        )
    )
    passed = sum(1 for e in entries if e.status == PASS)
    failed = sum(1 for e in entries if e.status == FAIL)
    skipped = sum(1 for e in entries if e.status == SKIP)
    return ComplexityReport(tuple(entries), passed, failed, skipped, __version__)


def _sizes(requested: tuple[int, int] | None, claim_range: tuple[int, int], family: str):
    lo, hi = requested if requested else claim_range
    for value in range(max(lo, MIN_N[family]), hi + 1):
        yield value, (value > claim_range[1])


class _Memo:
    """What one run_verification call builds once and reads many times."""

    def __init__(self, semigroup_cap: int):
        self.semigroup_cap = semigroup_cap
        self.operands: dict[tuple, Dfa] = {}
        self.semigroups: dict[frozenset, tuple[int, bool]] = {}
        # (m, n, dialect pair) -> the pair's product; holds the products
        # of one family and mode only, so those are not in the key
        self.products: dict[tuple, Callable[[str], Dfa]] = {}

    def operand(self, family: str, n: int, dialect: tuple | None) -> Dfa:
        key = (family, n, dialect)
        d = self.operands.get(key)
        if d is None:
            d = make_witness(family, n) if dialect is None else make_dialect(family, n, dialect)
            self.operands[key] = d
        return d

    def label(self, family: str, n: int, dialect: tuple | None) -> str:
        """The report's name for an operand: its letter map, or the witness's letters."""
        if dialect is None:
            dialect = self.operand(family, n, None).alphabet
        return format_letter_map(dialect)

    def semigroup(self, family: str, n: int) -> tuple[int, bool]:
        # streams that share their letters share the semigroup
        witness = self.operand(family, n, None)
        key = frozenset(t.image for t in witness.delta.values())
        if key not in self.semigroups:
            summary = syntactic_semigroup_size(witness, self.semigroup_cap)
            self.semigroups[key] = (summary.size, summary.truncated)
        return self.semigroups[key]

    def product(self, claim: Claim, m: int, n: int) -> Callable[[str], Dfa]:
        dialect2 = claim.dialect2_at(m, n)
        key = (m, n, claim.dialect1, dialect2)
        product = self.products.get(key)
        if product is None:
            d1 = self.operand(claim.family, m, claim.dialect1)
            d2 = self.operand(claim.family, n, dialect2)
            product = self.products[key] = _boolean_product(d1, d2, claim.mode)
        return product


_UNARY = {
    "reverse": lambda d: complexity(reverse(d)),
    "atoms-count": lambda d: len(atoms(d)),
    "star": lambda d: complexity(star(d)),
}


def _measure(claim: Claim, m: int | None, n: int, memo: _Memo) -> list:
    """(quantity, expected, measured, status, reason) for each entry of
    one row the claim includes."""
    family = claim.family
    if claim.tag == "atom":
        return [
            ("atom({" + ",".join(str(q) for q in sorted(key)) + "})",
             formula_v, measured_v, PASS if measured_v == formula_v else FAIL, "")
            for key, measured_v, formula_v in _atom_items(memo.operand(family, n, None), claim, n)
        ]
    if claim.tag == "semigroup":
        measured_v, truncated = memo.semigroup(family, n)
        if truncated:
            reason = "semigroup enumeration truncated at the cap"
            return [(claim.tag, None, measured_v, SKIP, reason)]
    elif claim.mode is None:
        measured_v = _UNARY[claim.tag](memo.operand(family, n, claim.dialect1))
    elif claim.tag == "product":
        d1 = memo.operand(family, m, claim.dialect1)
        d2 = memo.operand(family, n, claim.dialect2_at(m, n))
        measured_v = complexity(concat(d1, d2))
    else:
        measured_v = complexity(memo.product(claim, m, n)(claim.tag))
    expected_v = claim.formula(m, n)
    return [(claim.tag, expected_v, measured_v, PASS if measured_v == expected_v else FAIL, "")]


def _run_claim(claim, n_range, m_range, memo: _Memo) -> list[ReportEntry]:
    family = claim.family
    binary = claim.mode is not None
    entries = []
    for n, beyond_n in _sizes(n_range, claim.rows, family):
        ms = list(_sizes(m_range, claim.rows, family)) if binary else [(None, False)]
        for m, beyond_m in ms:
            if binary:
                d2 = claim.dialect2_at(m, n)
                dialects = (memo.label(family, m, claim.dialect1), memo.label(family, n, d2))
            else:
                dialects = (memo.label(family, n, claim.dialect1),)
            reason = claim.exclude(m, n)
            if not reason and (beyond_n or beyond_m):
                reason = "beyond the configured resource range"
            if reason:
                results = [(claim.tag, None, None, SKIP, reason)]
            else:
                results = _measure(claim, m, n, memo)
            for quantity, *rest in results:
                entries.append(ReportEntry(family, quantity, claim.mode, dialects, m, n, *rest))
    return entries


def report_to_json(report: ComplexityReport) -> str:
    doc = {
        "version": report.version,
        "passed": report.passed,
        "failed": report.failed,
        "skipped": report.skipped,
        "entries": [
            dict(asdict(e), **{"pass": e.status == PASS}) for e in report.entries
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def report_to_table(report: ComplexityReport) -> str:
    headers = ("status", "family", "quantity", "mode", "m", "n", "expected", "measured", "dialects", "reason")
    rows = [headers]
    for e in report.entries:
        rows.append(
            (
                e.status,
                e.family,
                e.quantity,
                e.mode or "-",
                str(e.m) if e.m is not None else "-",
                str(e.n),
                str(e.expected) if e.expected is not None else "-",
                str(e.measured) if e.measured is not None else "-",
                " ".join(e.dialects),
                e.reason,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    summary = f"passed {report.passed}, failed {report.failed}, skipped {report.skipped} (tool {report.version})"
    return "\n".join(lines + [summary]) + "\n"
