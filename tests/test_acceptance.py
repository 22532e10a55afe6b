"""Acceptance suite: every numbered criterion at exact integer equality.

Criteria 1-8 read the shared full default verification report (so the
values asserted here are the ones the harness reproduces); 9 and 10 run
their corpora directly.  One PASS/FAIL line is printed per criterion.
"""

from contextlib import contextmanager
from dataclasses import replace
from random import Random

from helpers import random_dfa, witness_atom_items

from suffixconvex.automata import complexity, minimize, occurring_letters
from suffixconvex.classifiers import classify
from suffixconvex.measures import atom_complexity, atoms, transition_semigroup
from suffixconvex.operations import equivalent, reverse, star
from suffixconvex.witnesses import MIN_N, make_dialect, make_witness


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def rows(report, family, quantity, mode=None, exact_quantity=True):
    out = [
        e
        for e in report.entries
        if e.family == family
        and (e.quantity == quantity if exact_quantity else e.quantity.startswith(quantity))
        and (mode is None or e.mode == mode)
    ]
    assert out, f"no report rows for {family}/{quantity}/{mode}"
    return out


def measured_by_n(entries):
    return {e.n: e.measured for e in entries}


def assert_all_pass(entries):
    bad = [e for e in entries if e.status != "PASS"]
    assert not bad, bad[:5]


def test_criterion_1_semigroups(default_report):
    with criterion(1, "semigroup sizes"):
        for family in ("left-ideal", "suffix-closed"):
            entries = [e for e in rows(default_report, family, "semigroup") if 4 <= e.n <= 7]
            assert_all_pass(entries)
            assert measured_by_n(entries) == {4: 67, 5: 629, 6: 7781, 7: 117655}
        entries = [e for e in rows(default_report, "suffix-free-5", "semigroup") if e.n >= 6]
        assert_all_pass(entries)
        assert measured_by_n(entries) == {6: 629, 7: 7781}


def test_criterion_2_reversal_and_atom_counts(default_report):
    with criterion(2, "reversal and atom counts"):
        doubling = {4: 9, 5: 17, 6: 33, 7: 65, 8: 129}
        for family in ("left-ideal-alt", "suffix-closed"):
            rev = rows(default_report, family, "reverse")
            assert_all_pass(rev)
            assert measured_by_n(rev) == doubling
            counts = rows(default_report, family, "atoms-count")
            assert_all_pass(counts)
            assert measured_by_n(counts) == doubling
        halved = {4: 5, 5: 9, 6: 17, 7: 33, 8: 65}
        rev = rows(default_report, "suffix-free-5", "reverse")
        assert_all_pass(rev)
        assert measured_by_n(rev) == halved
        counts = rows(default_report, "suffix-free-5", "atoms-count")
        assert_all_pass(counts)
        assert measured_by_n(counts) == halved


def test_criterion_3_atom_complexities(default_report):
    with criterion(3, "atom complexities match the closed forms"):
        for family in ("left-ideal", "left-ideal-alt", "suffix-closed", "suffix-free-5"):
            entries = rows(default_report, family, "atom(", exact_quantity=False)
            assert_all_pass(entries)
            assert {e.n for e in entries} == {4, 5, 6}
        # spot values, via the independent pair-automaton measurement
        ideal = make_witness("left-ideal", 4)
        assert atom_complexity(ideal, frozenset({1})) == 13
        closed = make_witness("suffix-closed", 4)
        assert atom_complexity(closed, frozenset({0})) == 8
        by_key = {key: measured for key, measured, _ in witness_atom_items("suffix-free-5", 4)}
        assert by_key[frozenset({1})] == 5


def test_criterion_4_star(default_report):
    with criterion(4, "star complexities"):
        entries = rows(default_report, "left-ideal", "star")
        assert_all_pass(entries)
        assert measured_by_n(entries) == {n: n + 1 for n in range(4, 9)}
        entries = rows(default_report, "suffix-closed", "star")
        assert_all_pass(entries)
        assert measured_by_n(entries) == {n: n for n in range(4, 9)}
        for n in range(4, 9):
            dialect = make_dialect("suffix-closed", n, ("a", None, None, "d", "e"))
            assert equivalent(star(dialect), dialect)
        entries = rows(default_report, "suffix-free-3", "star")
        assert_all_pass(entries)
        assert measured_by_n(entries) == {n: 2 ** (n - 2) + 1 for n in range(4, 9)}


def test_criterion_5_products(default_report):
    grid = [(m, n) for m in range(4, 7) for n in range(4, 7)]
    with criterion(5, "product complexities"):
        cases = {
            ("left-ideal", "restricted"): lambda m, n: m + n - 1,
            ("left-ideal", "unrestricted"): lambda m, n: m * n + m + n,
            ("suffix-closed", "restricted"): lambda m, n: m * n - n + 1,
            ("suffix-closed", "unrestricted"): lambda m, n: m * n + m + 1,
            ("suffix-free-3", "restricted"): lambda m, n: (m - 1) * 2 ** (n - 2) + 1,
            ("suffix-free-3", "unrestricted"): lambda m, n: (m - 1) * 2 ** (n - 2) + 1,
        }
        for (family, mode), formula in cases.items():
            entries = rows(default_report, family, "product", mode)
            assert_all_pass(entries)
            got = {(e.m, e.n): e.measured for e in entries}
            assert got == {(m, n): formula(m, n) for (m, n) in grid}


def test_criterion_6_boolean_operations(default_report):
    grid = [(m, n) for m in range(4, 7) for n in range(4, 7)]
    sf_formula = {
        "union": lambda m, n: m * n - (m + n - 2),
        "symdiff": lambda m, n: m * n - (m + n - 2),
        "difference": lambda m, n: m * n - (m + 2 * n - 4),
        "intersection": lambda m, n: m * n - 2 * (m + n - 3),
    }
    unrestricted_formula = {
        "union": lambda m, n: (m + 1) * (n + 1),
        "symdiff": lambda m, n: (m + 1) * (n + 1),
        "difference": lambda m, n: m * n + m,
        "intersection": lambda m, n: m * n,
    }
    with criterion(6, "boolean operation complexities"):
        for family in ("left-ideal", "suffix-closed"):
            for op in sf_formula:
                entries = rows(default_report, family, op, "restricted")
                assert_all_pass(entries)
                assert {(e.m, e.n): e.measured for e in entries} == {
                    (m, n): m * n for (m, n) in grid
                }
                entries = rows(default_report, family, op, "unrestricted")
                assert_all_pass(entries)
                assert {(e.m, e.n): e.measured for e in entries} == {
                    (m, n): unrestricted_formula[op](m, n) for (m, n) in grid
                }
        for mode in ("restricted", "unrestricted"):
            for op, formula in sf_formula.items():
                entries = rows(default_report, "suffix-free-5", op, mode)
                assert_all_pass(entries)
                assert {(e.m, e.n): e.measured for e in entries} == {
                    (m, n): formula(m, n) for (m, n) in grid
                }
                entries = rows(default_report, "suffix-free-3", op, mode)
                skipped = [e for e in entries if e.status == "SKIP"]
                assert [(e.m, e.n) for e in skipped] == [(4, 4)]
                measured = [e for e in entries if e.status != "SKIP"]
                assert_all_pass(measured)
                assert {(e.m, e.n): e.measured for e in measured} == {
                    (m, n): formula(m, n) for (m, n) in grid if (m, n) != (4, 4)
                }


def test_criterion_7_regular_baseline(default_report):
    with criterion(7, "regular-language baseline"):
        entries = rows(default_report, "regular", "reverse")
        assert_all_pass(entries)
        assert measured_by_n(entries) == {3: 8, 4: 16, 5: 32, 6: 64}
        entries = rows(default_report, "regular", "star")
        assert_all_pass(entries)
        assert measured_by_n(entries) == {n: 2 ** (n - 1) + 2 ** (n - 2) for n in range(3, 7)}
        for op in ("union", "symdiff", "difference", "intersection"):
            entries = rows(default_report, "regular", op, "restricted")
            assert_all_pass(entries)
            assert {(e.m, e.n): e.measured for e in entries} == {
                (m, n): m * n for m in range(3, 6) for n in range(3, 6)
            }
        entries = rows(default_report, "regular", "semigroup")
        assert_all_pass(entries)
        assert measured_by_n(entries) == {n: n**n for n in range(3, 7)}


def test_criterion_8_new_left_ideal_stream(default_report):
    with criterion(8, "alternative left-ideal stream, product skipped"):
        product_rows = rows(default_report, "left-ideal-alt", "product")
        assert all(e.status == "SKIP" for e in product_rows)
        assert all("product" in e.reason for e in product_rows)
        everything_else = [
            e
            for e in default_report.entries
            if e.family == "left-ideal-alt" and e.quantity != "product"
        ]
        assert everything_else
        assert_all_pass(everything_else)


def _trie_classify(d, max_len):
    """Word-level class decisions from one walk over all words <= max_len."""
    initial_step = {letter: d.delta[letter](d.initial) for letter in d.alphabet}
    lang = set()
    left_ideal_violation = False
    stack = [((), tuple(range(d.n)))]
    while stack:
        word, image = stack.pop()
        if image[d.initial] in d.finals:
            lang.add(word)
            if any(image[initial_step[l]] not in d.finals for l in d.alphabet):
                left_ideal_violation = True
        if len(word) < max_len:
            for letter in d.alphabet:
                table = d.delta[letter]
                stack.append((word + (letter,), tuple(table(q) for q in image)))

    closed = all(w[i:] in lang for w in lang for i in range(len(w) + 1))
    free = not any(w[i:] in lang for w in lang for i in range(1, len(w) + 1))
    convex = True
    for w in lang:
        for i in range(len(w) + 1):
            middle = w[i:]
            if middle in lang:
                continue
            if any(middle[j:] in lang for j in range(1, len(middle) + 1)):
                convex = False
                break
        if not convex:
            break
    ideal = bool(lang) and not left_ideal_violation
    return ideal, closed, free, convex


def test_criterion_9_classifier_suite():
    with criterion(9, "classifiers against declared classes and brute force"):
        declared = {
            "left-ideal": (True, False, False, True),
            "left-ideal-alt": (True, False, False, True),
            "suffix-closed": (False, True, False, True),
            "suffix-free-5": (False, False, True, True),
            "suffix-free-n": (False, False, True, True),
            "suffix-free-3": (False, False, True, True),
            "suffix-free-2star": (False, False, True, True),
        }
        for family, flags in declared.items():
            report = classify(make_witness(family, max(MIN_N[family], 5)))
            assert (
                report.is_left_ideal,
                report.is_suffix_closed,
                report.is_suffix_free,
                report.is_suffix_convex,
            ) == flags, family

        rng = Random(2024)
        corpus = [minimize(random_dfa(rng, max_n=5, max_letters=3)) for _ in range(200)]
        for d in corpus:
            report = classify(d)
            if report.is_left_ideal or report.is_suffix_closed or report.is_suffix_free:
                assert report.is_suffix_convex
            brute = _trie_classify(d, 8)
            got = (
                report.is_left_ideal,
                report.is_suffix_closed,
                report.is_suffix_free,
                report.is_suffix_convex,
            )
            assert got == brute, (d, got, brute)


def test_criterion_10_property_suite():
    with criterion(10, "double reversal, atom counts, semigroup invariance"):
        rng = Random(4096)
        corpus = [random_dfa(rng, max_n=6, max_letters=3) for _ in range(100)]
        for d in corpus:
            double = reverse(reverse(d))
            assert double.n == minimize(d).n
            if occurring_letters(d) == frozenset(d.alphabet):
                assert double.n == complexity(d)
            assert len(atoms(d)) == minimize(reverse(d)).n

        final_rng = Random(512)
        for family in ("left-ideal", "left-ideal-alt", "suffix-closed", "suffix-free-5"):
            for n in (4, 5):
                w = make_witness(family, n)
                base = transition_semigroup(w).size
                for _ in range(6):
                    finals = frozenset(q for q in range(n) if final_rng.random() < 0.5)
                    assert transition_semigroup(replace(w, finals=finals)).size == base


def test_full_default_report_has_no_failures(default_report):
    assert default_report.failed == 0
    assert default_report.passed > 700
    reasons = {e.reason for e in default_report.entries if e.status == "SKIP"}
    assert reasons == {
        "the stream meets no product bound",
        "the three-letter boolean pair excludes (m,n)=(4,4)",
        "the semigroup bound applies from n=6",
    }
