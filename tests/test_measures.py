import math
from dataclasses import replace
from random import Random

import pytest
from helpers import (
    cycle_dfa,
    dfa_corpus,
    naive_atom_automaton,
    naive_atom_complexity,
    naive_atoms,
    naive_quotient_complexities,
    naive_semigroup,
    random_dfa_with_edge_finals,
    revalidated,
)

from suffixconvex import measures
from suffixconvex.automata import Dfa, complexity, equivalent, minimize
from suffixconvex.errors import InputError, LimitError
from suffixconvex.measures import (
    DEFAULT_SEMIGROUP_CAP,
    SEMIGROUP_STATE_BOUND,
    atom_automaton,
    atom_complexities,
    atom_complexity,
    atom_formula,
    atoms,
    quotient_complexities,
    syntactic_semigroup_size,
    transition_semigroup,
)
from suffixconvex.operations import boolean_unrestricted, complement, reverse
from suffixconvex.verify import witness_atom_items
from suffixconvex.witnesses import make_dialect, make_witness


def test_transition_semigroup_sizes():
    assert transition_semigroup(make_witness("left-ideal", 4)).size == 67
    assert transition_semigroup(make_witness("suffix-free-5", 6)).size == 629
    lazy = Dfa(3, ("a", "b"), {"a": (0, 1, 2), "b": (0, 1, 2)}, 0, frozenset({2}))
    assert transition_semigroup(lazy).size == 1


def test_transition_semigroup_cap():
    summary = transition_semigroup(make_witness("left-ideal", 5), cap=100)
    assert summary.truncated
    assert summary.size == 100


def test_semigroup_cap_must_be_positive():
    w = make_witness("left-ideal", 5)
    for cap in (0, -3):
        with pytest.raises(InputError, match="cap must be a positive integer"):
            transition_semigroup(w, cap)
        with pytest.raises(InputError, match="cap must be a positive integer"):
            syntactic_semigroup_size(w, cap)


def test_transition_semigroup_matches_naive_closure_on_corpus():
    for d in dfa_corpus(seed=107, count=500, max_n=7):
        for cap in (1, 5, 50, 300, DEFAULT_SEMIGROUP_CAP):
            summary = transition_semigroup(d, cap)
            assert (summary.size, summary.truncated) == naive_semigroup(d, cap)


def test_transition_semigroup_state_bound():
    at_bound = cycle_dfa(SEMIGROUP_STATE_BOUND)
    assert transition_semigroup(at_bound).size == SEMIGROUP_STATE_BOUND
    over = cycle_dfa(SEMIGROUP_STATE_BOUND + 1)
    with pytest.raises(LimitError, match="bound of 256 states"):
        transition_semigroup(over)
    with pytest.raises(LimitError, match="bound of 256 states"):
        syntactic_semigroup_size(over, cap=1)


def test_syntactic_semigroup_sizes():
    assert syntactic_semigroup_size(make_witness("left-ideal-alt", 4)).size == 67
    assert syntactic_semigroup_size(make_witness("suffix-closed", 4)).size == 67
    assert syntactic_semigroup_size(make_witness("left-ideal", 5)).size == 629


def test_semigroup_generators_recorded():
    w = make_witness("regular", 3)
    summary = transition_semigroup(w)
    assert summary.size == 27


def test_transition_semigroup_ignores_finals():
    rng = Random(17)
    for family in ("left-ideal", "suffix-closed", "suffix-free-3"):
        for n in (4, 5):
            w = make_witness(family, n)
            base = transition_semigroup(w).size
            for _ in range(5):
                finals = frozenset(q for q in range(n) if rng.random() < 0.5)
                assert transition_semigroup(replace(w, finals=finals)).size == base


def test_syntactic_semigroup_invariant_for_minimality_preserving_finals():
    rng = Random(19)
    for n in (4, 5):
        w = make_witness("left-ideal", n)
        base = syntactic_semigroup_size(w).size
        hits = 0
        for _ in range(12):
            finals = frozenset(q for q in range(n) if rng.random() < 0.5)
            candidate = replace(w, finals=finals)
            if minimize(candidate).n == n:
                hits += 1
                assert syntactic_semigroup_size(candidate).size == base
        assert hits >= 4


def test_quotient_complexities_examples():
    d = make_dialect("suffix-free-5", 5, ("a", None, None, None, "e"))
    assert quotient_complexities(d) == (5, 1, 4, 4, 4)
    m = make_dialect("left-ideal-alt", 4, ("a", None, None, "d", "e"))
    assert quotient_complexities(m) == (4, 4, 4, 4)
    universal = Dfa(1, ("a",), {"a": (0,)}, 0, frozenset({0}))
    assert quotient_complexities(universal) == (1,)


def test_quotient_complexities_match_naive_on_corpus():
    rng = Random(59)
    corpus = [random_dfa_with_edge_finals(rng) for _ in range(1200)]
    smaller = 0
    for d in corpus:
        want = naive_quotient_complexities(d)
        assert quotient_complexities(d) == want
        smaller += min(want) < len(want)
    assert {len(d.alphabet) for d in corpus} == {0, 1, 2, 3}
    # some quotient is smaller than the minimal DFA of the language
    assert smaller >= 100


def test_complexity_and_semigroup_alphabet_conventions():
    # L = a* over {a, b}: complexity drops b, which occurs in no accepted
    # word; the syntactic semigroup keeps it (identity and map to the sink)
    a_star = Dfa(2, ("a", "b"), {"a": (0, 1), "b": (1, 1)}, 0, frozenset({0}))
    assert complexity(a_star) == 1
    assert syntactic_semigroup_size(a_star).size == 2


def test_atoms_counts():
    assert len(atoms(make_dialect("left-ideal-alt", 4, ("a", None, "c", "d", "e")))) == 9
    assert len(atoms(make_dialect("suffix-free-5", 4, ("a", None, "c", None, "e")))) == 5
    sigma_star = Dfa(1, ("a",), {"a": (0,)}, 0, frozenset({0}))
    assert atoms(sigma_star) == frozenset({frozenset({0})})


def test_atoms_of_left_ideal_reversal_dialect_at_n12():
    d = make_dialect("left-ideal", 12, ("a", None, "c", "d", "e"))
    assert len(atoms(d)) == 2**11 + 1


def test_atoms_limit():
    with pytest.raises(LimitError):
        atoms(make_witness("left-ideal", 13), limit=12)


def test_atom_complexity_spot_values():
    w = make_witness("left-ideal", 4)
    assert atom_complexity(w, frozenset(range(4))) == 4
    assert atom_complexity(w, frozenset()) == 8
    assert atom_complexity(w, frozenset({1})) == 13


def test_atom_complexity_rejects_bad_keys():
    w = make_witness("left-ideal", 4)
    with pytest.raises(InputError):
        atom_complexity(w, frozenset({9}))
    # {0} is not an atom of this left ideal: its initial quotient is
    # contained in every other quotient's union
    with pytest.raises(InputError):
        atom_complexity(w, frozenset({0}))


def test_atom_formula_values():
    # independent evaluation of the double sums
    def ideal_sum(n, size):
        return 1 + sum(
            math.comb(n - 1, x) * math.comb(n - x - 1, y - 1)
            for x in range(1, size + 1)
            for y in range(1, n - size + 1)
        )

    assert atom_formula("left-ideal", 4, {1}) == ideal_sum(4, 1) == 13
    assert atom_formula("left-ideal", 6, {1, 2}) == ideal_sum(6, 2)
    assert atom_formula("suffix-closed", 4, {0}) == 8
    assert atom_formula("suffix-free", 4, {1}) == 5
    assert atom_formula("suffix-free", 5, {0}) == 5
    assert atom_formula("suffix-free", 6, frozenset()) == 17
    assert atom_formula("left-ideal", 5, frozenset(range(5))) == 5
    assert atom_formula("suffix-closed", 5, frozenset(range(5))) == 16


def test_atom_formula_rejections():
    with pytest.raises(InputError):
        atom_formula("suffix-closed", 4, {1})
    with pytest.raises(InputError):
        atom_formula("suffix-free", 4, {0, 1})
    with pytest.raises(InputError):
        atom_formula("suffix-free", 4, {3})
    with pytest.raises(InputError):
        atom_formula("prefix-free", 4, {1})
    with pytest.raises(InputError):
        atom_formula("left-ideal", 4, {7})


def test_atom_complexity_matches_formula_on_witnesses():
    # beyond the default report's n <= 6; the CLAIMS rows stay as they are
    cases = [
        (family, n)
        for family in ("left-ideal", "left-ideal-alt", "suffix-closed", "suffix-free-5")
        for n in range(4, 8)
    ]
    for family, n in cases + [("left-ideal", 8)]:
        items = witness_atom_items(family, n)
        assert items, (family, n)
        for key, measured, formula in items:
            assert measured == formula, (family, n, sorted(key))


def test_atoms_match_naive_enumeration_on_corpus():
    for d in dfa_corpus(seed=101, count=30, max_n=7):
        m = minimize(d)
        keys = atoms(m)
        assert keys == naive_atoms(m)
        for bits in range(2**m.n):
            s = frozenset(q for q in range(m.n) if bits >> q & 1)
            if s in keys:
                a = atom_automaton(m, s)
                assert revalidated(a) == a  # the unchecked constructor built a valid Dfa
            else:
                with pytest.raises(InputError):
                    atom_automaton(m, s)


def test_atom_complexities_match_naive_atom_complexity_on_corpus():
    # n <= 6: at n = 8 the naive minimizations alone take half a minute
    rng = Random(61)
    corpus = [random_dfa_with_edge_finals(rng, max_n=6) for _ in range(1000)]
    measured = 0
    for d in corpus:
        got = atom_complexities(d)
        assert set(got) == atoms(d)
        for key, value in got.items():
            assert value == naive_atom_complexity(d, key)
            assert atom_complexity(d, key) == value
        measured += len(got)
    assert measured >= 3000
    assert sum(not d.finals for d in corpus) >= 100


def test_atom_automaton_matches_naive_atom_automaton_on_corpus():
    rng = Random(67)
    corpus = [random_dfa_with_edge_finals(rng, max_n=6) for _ in range(400)]
    built = 0
    for d in corpus:
        m = minimize(d)
        keys = atoms(m)
        for bits in range(2**m.n):
            s = frozenset(q for q in range(m.n) if bits >> q & 1)
            if s in keys:
                assert atom_automaton(m, s) == naive_atom_automaton(m, s)  # numbering included
                built += 1
            else:
                for build in (atom_automaton, naive_atom_automaton):
                    with pytest.raises(InputError, match="is empty"):
                        build(m, s)
        for build in (atom_automaton, naive_atom_automaton):
            with pytest.raises(InputError, match="outside"):
                build(m, frozenset({m.n}))
    assert built >= 1000


def test_atom_complexities_refines_once(monkeypatch):
    w = make_witness("left-ideal", 6)
    sizes = []
    refine = measures._hopcroft
    monkeypatch.setattr(
        measures, "_hopcroft", lambda n, rows, finals: sizes.append(n) or refine(n, rows, finals)
    )
    got = atom_complexities(w)
    assert len(got) == 2**5 + 1
    # one refinement of the one pair automaton shared by the 33 atoms
    assert sizes == [len(measures._atom_pairs(minimize(w), list(got))[0])]
    sizes.clear()
    with pytest.raises(LimitError):  # the atom limit is checked before any refinement
        atom_complexities(make_witness("left-ideal", 13))
    assert sizes == []


def test_atom_complexities_minimizes_once(monkeypatch):
    w = make_witness("left-ideal", 5)
    keys = atoms(w)
    calls = []
    monkeypatch.setattr(measures, "minimize", lambda d: calls.append(d) or minimize(d))
    assert set(atom_complexities(w)) == keys
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(LimitError):  # the default atom limit still holds
        atom_complexities(make_witness("left-ideal", 13))
    assert len(calls) == 1


def test_atom_count_equals_reverse_complexity_on_corpus():
    for d in dfa_corpus(seed=83, count=40, max_n=5):
        assert len(atoms(d)) == minimize(reverse(d)).n


def test_atoms_of_complement_are_complemented_keys():
    for d in dfa_corpus(seed=89, count=25, max_n=5):
        m = minimize(d)
        full = frozenset(range(m.n))
        got = atoms(complement(m))
        assert got == frozenset(full - s for s in atoms(m))


def test_atoms_partition_quotients():
    # atoms are pairwise disjoint and every quotient is the union of the
    # atoms whose key contains it
    for family, n in (("left-ideal", 4), ("suffix-closed", 4), ("suffix-free-5", 4)):
        w = make_witness(family, n)
        m = minimize(w)
        keys = sorted(atoms(m), key=lambda s: (len(s), sorted(s)))
        automata = {key: atom_automaton(m, key) for key in keys}
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1 :]:
                overlap = boolean_unrestricted(automata[k1], automata[k2], "intersection")
                assert complexity(overlap) == 1 and not minimize(overlap).finals
        for q in range(m.n):
            quotient = replace(m, initial=q)
            parts = [automata[key] for key in keys if q in key]
            if not parts:
                assert not minimize(quotient).finals
                continue
            union = parts[0]
            for part in parts[1:]:
                union = boolean_unrestricted(union, part, "union")
            assert equivalent(union, quotient)
