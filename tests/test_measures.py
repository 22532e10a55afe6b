import itertools
import math
from dataclasses import replace
from random import Random

import pytest
from helpers import (
    cycle_dfa,
    dfa_corpus,
    group_closure,
    memberwise_atom_quotients,
    naive_atom_automaton,
    naive_atom_complexity,
    naive_atoms,
    naive_quotient_complexities,
    naive_semigroup,
    random_dfa_with_edge_finals,
    random_generators_dfa,
    refined_atom_complexities,
    refined_atom_complexity,
    revalidated,
    witness_atom_items,
)

from suffixconvex import automata, measures
from suffixconvex.automata import Dfa, complexity, minimize
from suffixconvex.errors import InputError, LimitError
from suffixconvex.measures import (
    DEFAULT_SEMIGROUP_CAP,
    SEMIGROUP_STATE_BOUND,
    SemigroupSummary,
    atom_automaton,
    atom_complexities,
    atom_complexity,
    atoms,
    quotient_complexities,
    syntactic_semigroup_size,
    transition_semigroup,
)
from suffixconvex.operations import boolean_unrestricted, complement, equivalent, reverse
from suffixconvex.witnesses import atom_formula, make_dialect, make_witness


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


def _record_group_orders(monkeypatch) -> list[int]:
    """The order that each stabilizer chain the count builds stands for."""
    orders = []
    chain_of = measures._stabilizer_chain

    def recorded(gens, bound):
        chain = chain_of(gens, bound)
        orders.append(math.prod(map(len, chain)))
        return chain

    monkeypatch.setattr(measures, "_stabilizer_chain", recorded)
    return orders


def _path_args(d: Dfa, cap: int) -> tuple[int, list[bytes], int]:
    """What ``transition_semigroup`` hands either path: the number of
    states, the distinct letters, and C, the larger of cap and their number."""
    gens = list(dict.fromkeys(bytes(d.delta[letter].image) for letter in d.alphabet))
    return d.n, gens, max(cap, len(gens))


def _paths(d: Dfa, cap: int) -> list[tuple[int, bool]]:
    """(size, truncated) from the listing and from the R-class count."""
    args = _path_args(d, cap)
    return [(s.size, s.truncated) for s in (measures._listed(*args), measures._by_r_classes(*args))]


def test_transition_semigroup_matches_naive_closure_on_corpus(monkeypatch):
    orders = _record_group_orders(monkeypatch)

    def check(d, cap):  # both paths, whichever transition_semigroup would pick
        want = naive_semigroup(d, cap)
        assert _paths(d, cap) == [want, want], (d.delta, cap)
        return want

    # with n <= 7 every semigroup lies below the default cap, so at that cap
    # these are exact counts, however large
    for d in dfa_corpus(seed=107, count=500, max_n=7):
        for cap in (1, 5, 50, 300, DEFAULT_SEMIGROUP_CAP):
            check(d, cap)
    # letters that are permutations three times in ten; caps 1 and 2 lie
    # below the number of distinct letters of many sets.  The closure lists
    # every element, so the default cap is compared on the sets it completes
    # within 1,000 elements, seven in eight, and every fifth of the rest at
    # cap 100,000: 64 exact sizes from 1,025 to 87,626 and 9 truncations
    rng = Random(107)
    large = exact = 0
    for _ in range(3000):
        d = random_generators_dfa(rng)
        for cap in (1, 2, 5, 50, 300, 1_000):
            want = check(d, cap)
        if not want[1]:
            check(d, DEFAULT_SEMIGROUP_CAP)
            continue
        large += 1
        if large % 5 == 0:
            exact += not check(d, 100_000)[1]
    assert large >= 300 and exact >= 50
    # many Schützenberger groups of the R-class count are neither trivial
    # nor symmetric: their orders are no factorial
    assert sum(order not in (1, 2, 6, 24, 120, 720, 5040) for order in orders) >= 1_000


@pytest.mark.parametrize(
    "a,b,size",
    [
        ((1, 3, 6, 0, 2, 5, 4), (1, 6, 3, 2, 1, 5, 0), 10347),
        ((5, 3, 4, 1, 0, 2, 6), (2, 3, 6, 1, 5, 3, 4), 6518),
        ((6, 4, 1, 0, 2, 3, 5), (1, 5, 4, 1, 4, 1, 6), 12877),
        ((2, 5, 3, 4, 1, 0), (0, 1, 1, 3, 2, 0), 5034),
    ],
)
def test_transition_semigroup_with_cyclic_units_matches_naive_closure(a, b, size):
    # a permutation and a map of smaller rank: the group of units is cyclic
    # with cycles of several lengths, neither trivial nor symmetric, so its
    # R-classes, and those of lower ranks, are told apart by cosets
    d = Dfa(len(a), ("a", "b"), {"a": a, "b": b}, 0, frozenset())
    assert naive_semigroup(d, DEFAULT_SEMIGROUP_CAP) == (size, False)
    assert transition_semigroup(d) == SemigroupSummary(size, False)


def test_transition_semigroup_keys_each_distinct_element_once(monkeypatch):
    # the left-ideal witness at n=7 makes 4,390 candidates but only 1,923
    # distinct elements: a repeat has the key it had, so it is skipped
    # before its key is made, and each key makes one coset's least element
    keyed = []
    least_in_coset = measures._least_in_coset

    def recorded(chain, tau):
        keyed.append(tau)
        return least_in_coset(chain, tau)

    monkeypatch.setattr(measures, "_least_in_coset", recorded)
    w = make_witness("left-ideal", 7)
    assert minimize(w) == w
    assert transition_semigroup(w) == SemigroupSummary(117_655, False)
    assert len(keyed) == 1_923


def _cycle_and_merge(n: int) -> Dfa:
    return Dfa(n, ("a", "b"), {"a": tuple((q + 1) % n for q in range(n)),
                               "b": (1,) + tuple(range(1, n))}, 0, frozenset())


def test_semigroup_cap_bounds_the_orbit(monkeypatch):
    # the images of a cycle and of a merge of two states reach all 2^20 - 1
    # nonempty sets of 20 states; at cap 300 the R-class count never lists
    # them all
    d = _cycle_and_merge(20)
    monkeypatch.setattr(measures, "_components", lambda n, rows: pytest.fail("orbit listed"))
    assert measures._by_r_classes(*_path_args(d, 300)) == SemigroupSummary(300, True)
    assert transition_semigroup(d, 300) == SemigroupSummary(300, True)


def test_semigroup_cap_bounds_the_group(monkeypatch):
    # a 200-cycle and a transposition generate the symmetric group on 200
    # points, whose chain has 199 levels; at cap 300 the R-class count stops
    # it after passing 300, below 2 x 300, since each new point at most
    # doubles the product
    n = 200
    d = Dfa(n, ("a", "b"), {"a": tuple((q + 1) % n for q in range(n)),
                            "b": (1, 0) + tuple(range(2, n))}, 0, frozenset())
    orders = _record_group_orders(monkeypatch)
    assert measures._by_r_classes(*_path_args(d, 300)) == SemigroupSummary(300, True)
    assert transition_semigroup(d, 300) == SemigroupSummary(300, True)
    [order] = orders
    assert 300 < order <= 600


def test_semigroup_is_listed_when_it_cannot_pass_the_listing_bound(monkeypatch):
    # transition_semigroup lists S when min(C, n^n) <= _LISTING_BOUND, C the
    # larger of the cap and the number of distinct letters, since |S| <= n^n;
    # otherwise it counts S by R-classes.  Each case fails the test if the
    # other path runs: the count can stop on its orbit, before _components
    bound = measures._LISTING_BOUND
    # the full transformation monoids on 4 and 5 states, from 3 letters
    regular4, regular5 = make_witness("regular", 4), make_witness("regular", 5)
    cycle_and_merge = _cycle_and_merge(20)  # 2^20 - 1 image sets
    # 1,001 distinct letters over 5 states: C passes the bound at any cap
    maps = Random(27).sample(list(itertools.product(range(5), repeat=5)), bound + 1)
    many = Dfa(5, tuple(f"x{i}" for i in range(len(maps))),
               {f"x{i}": t for i, t in enumerate(maps)}, 0, frozenset())
    # the caps around |S|, and below the number of distinct letters
    listed = [(regular4, cap) for cap in (DEFAULT_SEMIGROUP_CAP, 4**4 - 1, 4**4, 4**4 + 1, 2)]
    listed.append((cycle_and_merge, bound))
    counted = [(regular5, cap) for cap in (DEFAULT_SEMIGROUP_CAP, 5**5 - 1, 5**5, 5**5 + 1)]
    counted += [(cycle_and_merge, bound + 1), (many, 1)]
    for cases, other in ((listed, "_by_r_classes"), (counted, "_listed")):
        with monkeypatch.context() as m:
            m.setattr(measures, other, lambda *args: pytest.fail(f"{other} ran"))
            for d, cap in cases:
                assert transition_semigroup(d, cap) == SemigroupSummary(*naive_semigroup(d, cap))
    assert naive_semigroup(many, 1) == (bound + 1, True)
    # either path, whichever transition_semigroup picks, gives the same
    for d, cap in listed + counted + [(regular5, 2)]:
        want = naive_semigroup(d, cap)
        assert _paths(d, cap) == [want, want], (d.n, cap)


def _table(p):
    return bytes(p) + bytes(range(len(p), 256))


def _group_order(gens):
    return math.prod(map(len, measures._stabilizer_chain([_table(g) for g in gens], math.inf)))


def test_stabilizer_chain_orders():
    def shift(points, r):  # the cycle through points, fixing the rest of 0..r-1
        image = list(range(r))
        for x, y in zip(points, points[1:] + points[:1]):
            image[x] = y
        return tuple(image)

    known = [([], 1), ([(0, 1, 2)], 1)]
    for r in range(1, 9):
        rotation = shift(list(range(r)), r)
        known.append(([rotation, shift([0, 1], r) if r > 1 else rotation], math.factorial(r)))
        known.append(([rotation], r))
        if r >= 3:
            rest = list(range(r)) if r % 2 else list(range(1, r))
            known.append(([shift([0, 1, 2], r), shift(rest, r)], math.factorial(r) // 2))
            known.append(([rotation, tuple(-q % r for q in range(r))], 2 * r))
    # products of symmetric groups on disjoint orbits
    known.append(([shift([0, 1], 5), shift([2, 3], 5), shift([2, 3, 4], 5)], 2 * 6))
    known.append(([shift([0, 1, 2], 6), shift([0, 1], 6), shift([3, 4, 5], 6), shift([3, 4], 6)], 36))
    known.append(([shift([0, 1], 6), shift([2, 3], 6), shift([4, 5], 6)], 8))
    known.append(([(1, 0, 3, 2, 5, 4)], 2))  # not the product over its orbits
    for gens, order in known:
        assert _group_order(gens) == order, gens

    rng = Random(113)
    for _ in range(40):
        r = rng.randint(1, 8)
        gens = [tuple(rng.sample(range(r), r)) for _ in range(rng.randint(1, 3))]
        elements = group_closure(gens)
        assert _group_order(gens) == len(elements), gens
        bound = rng.randint(1, 60)
        part = math.prod(map(len, measures._stabilizer_chain([_table(g) for g in gens], bound)))
        if len(elements) <= bound:
            assert part == len(elements)
        else:
            assert bound < part <= 2 * bound
        if r <= 6:  # the least element of a coset, against every element
            chain = measures._stabilizer_chain([_table(g) for g in gens], math.inf)
            for _ in range(5):
                tau = tuple(rng.sample(range(r), r))
                want = min(bytes(tau[u[x]] for x in range(r)) for u in elements)
                assert measures._least_in_coset(chain, _table(tau))[:r] == want


def test_syntactic_semigroup_sizes_past_the_closure():
    # n^(n-1) + n - 1, (n-1)^(n-2) + n - 2 and n^n at sizes that listing
    # every element never reached
    big = 10**9
    assert syntactic_semigroup_size(make_witness("left-ideal", 8), big) == (
        SemigroupSummary(8**7 + 7, False)
    )
    assert syntactic_semigroup_size(make_witness("suffix-free-5", 9), big) == (
        SemigroupSummary(8**7 + 7, False)
    )
    assert syntactic_semigroup_size(make_witness("regular", 8), big) == (
        SemigroupSummary(8**8, False)
    )
    assert syntactic_semigroup_size(make_witness("regular", 8)) == (
        SemigroupSummary(DEFAULT_SEMIGROUP_CAP, True)
    )


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
    # the atoms match minimize(reverse(d)).n, which keeps the sink that
    # complexity drops with b, so complexity(reverse(d)) can be less
    assert len(atoms(a_star)) == minimize(reverse(a_star)).n == 2
    assert complexity(reverse(a_star)) == automata.reverse_complexity(a_star) == 1


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
                # the minimal atom DFA, numbering included
                assert atom_automaton(m, s) == minimize(naive_atom_automaton(m, s))
                built += 1
            else:
                for build in (atom_automaton, naive_atom_automaton, atom_complexity):
                    with pytest.raises(InputError, match="is empty"):
                        build(m, s)
        for build in (atom_automaton, naive_atom_automaton, atom_complexity):
            with pytest.raises(InputError, match="outside"):
                build(m, frozenset({m.n}))
    assert built >= 1000


def test_atom_complexities_match_refined_pair_automaton_on_corpus():
    # n <= 9, beyond naive_atom_complexity's reach; the classes' names are
    # checked against their definition at each class's representative pair
    rng = Random(71)
    corpus = [random_dfa_with_edge_finals(rng, max_n=9) for _ in range(150)]
    corpus += dfa_corpus(seed=73, count=40, max_n=9)
    corpus += [Dfa(1, (), {}, 0, finals) for finals in (frozenset(), frozenset({0}))]
    floors = {"miss on a known name": 0, "empty from a disjoint pair": 0,
              "one state": 0, "no letters": 0, "eight states or more": 0}
    for d in corpus:
        m = minimize(d)
        floors["one state"] += m.n == 1
        floors["no letters"] += not m.alphabet
        floors["eight states or more"] += m.n >= 8
        got = atom_complexities(d)
        assert got == refined_atom_complexities(d)
        masks = measures._atom_masks(m, None)
        keys = [frozenset(q for q in range(m.n) if x >> q & 1) for x in masks]
        assert keys[0] == m.finals and set(keys) == set(got)
        for key in keys:
            assert atom_complexity(m, key) == refined_atom_complexity(m, key) == got[key]
        names, rows = measures._atom_quotients(m, masks, range(len(masks)))

        def name_of(x, y):  # the atoms T with x inside T and y outside it
            return sum(1 << i for i, t in enumerate(keys) if x <= t and not y & t)

        # each class's representative is its seed, or the first pair found
        # with its name: its discoverer's representative after one letter
        full = frozenset(range(m.n))
        reps = [(key, full - key) for key in keys]
        for j in range(len(names)):
            x, y = reps[j]
            assert names[j] == name_of(x, y)
            for letter, row in zip(m.alphabet, rows):
                t = m.delta[letter]
                succ = (frozenset(map(t, x)), frozenset(map(t, y)))
                assert names[row[j]] == name_of(*succ)
                if row[j] == len(reps):
                    reps.append(succ)
                elif succ != reps[row[j]]:
                    floors["miss on a known name"] += 1
                if not names[row[j]] and not succ[0] & succ[1]:
                    floors["empty from a disjoint pair"] += 1
        assert len(reps) == len(names)
    assert min(floors.values()) >= 2, floors


def test_atom_quotients_match_memberwise_atom_quotients():
    # up to eight atoms one at a time, then all atoms at once, reversed and
    # in order: same names, same rows, over random minimal DFAs
    rng = Random(75)
    corpus = [minimize(random_dfa_with_edge_finals(rng, max_n=9)) for _ in range(600)]
    corpus += [Dfa(1, alphabet, {letter: (0,) for letter in alphabet}, 0, finals)
               for alphabet in ((), ("a",), ("a", "b")) for finals in (frozenset(), frozenset({0}))]
    floors = {"one state": 0, "no letters": 0, "empty name reached": 0, "50 quotients or more": 0}
    for m in corpus:
        masks = measures._atom_masks(m, None)
        all_seeds = range(len(masks))
        singles = rng.sample(all_seeds, min(8, len(masks)))
        for seeds in [[i] for i in singles] + [all_seeds[::-1], all_seeds]:
            names, rows = memberwise_atom_quotients(m, masks, seeds)
            assert measures._atom_quotients(m, masks, seeds) == (names, rows)
        floors["one state"] += m.n == 1
        floors["no letters"] += not m.alphabet
        floors["empty name reached"] += 0 in names
        floors["50 quotients or more"] += len(names) >= 50
    assert min(floors.values()) >= 5, floors


def test_repeated_atom_queries_on_one_dfa_match_refined_pair_automaton():
    # every key of one Dfa object, twice, in shuffled order, with calls to
    # atom_complexities and rejected keys in between: the table kept on
    # the object answers each as a fresh refinement of the key's own pair
    # automaton does; a copy with other finals keeps a table of its own
    rng = Random(79)
    corpus = dfa_corpus(seed=81, count=40, max_n=9)
    corpus += [random_dfa_with_edge_finals(rng, max_n=9) for _ in range(15)]
    corpus += [Dfa(1, alphabet, {letter: (0,) for letter in alphabet}, 0, finals)
               for alphabet in ((), ("a",)) for finals in (frozenset(), frozenset({0}))]
    floors = {"one state": 0, "no letters": 0, "eight states or more": 0,
              "empty key": 0, "copy answers differently": 0}
    for d in corpus:
        m = minimize(d)
        floors["one state"] += m.n == 1
        floors["no letters"] += not m.alphabet
        floors["eight states or more"] += m.n >= 8
        want = {key: refined_atom_complexity(d, key) for key in atoms(d)}
        empty = [frozenset(q for q in range(m.n) if bits >> q & 1) for bits in range(2**m.n)]
        empty = [key for key in empty if key not in want]
        queries = [*want, *want, "all", "all", frozenset({m.n})] + empty[:2]
        rng.shuffle(queries)
        for query in queries:
            if query == "all":
                assert atom_complexities(d) == want
            elif query in want:
                assert atom_complexity(d, query) == want[query]
            else:
                reason = "outside" if m.n in query else "is empty"
                floors["empty key"] += reason == "is empty"
                with pytest.raises(InputError, match=reason):
                    refined_atom_complexity(d, query)
                with pytest.raises(InputError, match=reason):
                    atom_complexity(d, query)
        assert d == replace(d)
        copy = replace(d, finals=frozenset(q for q in range(d.n) if rng.random() < 0.5))
        copy_want = refined_atom_complexities(copy)
        assert {key: atom_complexity(copy, key) for key in copy_want} == copy_want
        floors["copy answers differently"] += copy_want != want
        assert {key: atom_complexity(d, key) for key in want} == want
    assert min(floors.values()) >= 2, floors


def _spy_on_atom_quotients(monkeypatch, m):
    """Patch measures so that refining, walking or building an automaton
    fails and minimize hands back m; returns the list of the number of
    classes of each atom-quotient search made from then on, in order."""

    def fail(*args):
        raise AssertionError("the atom search refined, walked or built an automaton")

    # minimize refines and walks, so it hands back m: any call left is the search's
    monkeypatch.setattr(measures, "minimize", lambda d: m)
    monkeypatch.setattr(automata, "_hopcroft", fail)
    monkeypatch.setattr(automata, "_walk", fail)
    monkeypatch.setattr(measures, "atom_automaton", fail)
    monkeypatch.setattr(Dfa, "_trusted", fail)
    searches = []
    search = measures._atom_quotients

    def spy(*args):
        names, rows = search(*args)
        searches.append(len(names))
        return names, rows

    monkeypatch.setattr(measures, "_atom_quotients", spy)
    return searches


def test_atom_complexities_refines_once(monkeypatch):
    # the one pass shared by all 33 atoms is a search, not a refinement:
    # every name it expands is a distinct quotient
    w = make_witness("left-ideal", 6)
    m = minimize(w)
    want = refined_atom_complexities(w)
    assert len(want) == 2**5 + 1
    assert not hasattr(measures, "_hopcroft")
    searches = _spy_on_atom_quotients(monkeypatch, m)
    assert atom_complexities(w) == want
    assert searches == [250]


def test_atom_complexity_refines_once_and_builds_no_dfa(monkeypatch):
    # every key of one DFA reads one table kept on it: over all 33 keys,
    # asked twice each and once more all together, one search is made, of
    # all 250 classes, and nothing else is searched
    w = make_witness("left-ideal", 6)
    m = minimize(w)
    want = refined_atom_complexities(w)
    for key, value in want.items():
        assert atom_automaton(m, key).n == value
    searches = _spy_on_atom_quotients(monkeypatch, m)
    keys = list(want)
    Random(29).shuffle(keys)
    for key in keys:
        assert atom_complexity(w, key) == want[key]
        assert atom_complexity(w, key) == want[key]
        assert searches == [250]
    assert atom_complexities(w) == want
    assert searches == [250]


def test_atom_complexity_rejects_a_key_before_any_search(monkeypatch):
    # on a fresh DFA, a key outside the states or with an empty atom is
    # refused before the search of every atom, and leaves no table; the
    # first valid key makes that one search, and every key after it, the
    # rejected ones included, reads the table
    w = make_witness("left-ideal", 6)
    want = refined_atom_complexities(w)
    searches = []
    search = measures._atom_quotients

    def spy(*args):
        searches.append(len(args[2]))  # the number of seeds
        return search(*args)

    monkeypatch.setattr(measures, "_atom_quotients", spy)
    rejected = ((frozenset({0}), "is empty"), (frozenset({6}), "outside"))
    for key, reason in rejected:
        with pytest.raises(InputError, match=reason):
            atom_complexity(w, key)
        assert searches == []
        assert "_atom_table" not in vars(w)
    for key, value in want.items():
        assert atom_complexity(w, key) == value
    assert searches == [len(want)]
    for key, reason in rejected:
        with pytest.raises(InputError, match=reason):
            atom_complexity(w, key)
    assert searches == [len(want)]


def test_atom_complexity_past_the_limit_searches_from_its_key_alone():
    # left-ideal at n = 13 passes the default atom limit, so no table is
    # made: each key counts its own search, as many classes as its atom
    # automaton has states, and nothing is kept on the witness; the
    # witness is minimal, numbered as its definition
    w = make_witness("left-ideal", 13)
    m = minimize(w)
    assert m == w
    for key in (frozenset(range(13)), frozenset(), frozenset({1}), frozenset(range(1, 13))):
        got = atom_complexity(w, key)
        assert got == atom_automaton(m, key).n == atom_formula("left-ideal", 13, key)
    for key, reason in ((frozenset({0}), "is empty"), (frozenset({13}), "outside")):
        with pytest.raises(InputError, match=reason):
            atom_complexity(w, key)
    assert vars(w).keys() == {"n", "alphabet", "delta", "initial", "finals"}


def test_atom_limit_comes_before_any_enumeration(monkeypatch):
    def fail(*args):
        raise AssertionError("atoms were enumerated past the limit")

    monkeypatch.setattr(measures, "_preimages", fail)
    monkeypatch.setattr(measures, "_subsets", fail)
    w = make_witness("left-ideal", 13)
    for count in (atoms, atom_complexities):
        with pytest.raises(LimitError, match="exceeds the limit 12"):
            count(w)


def test_atom_limit_holds_after_a_query_past_it(monkeypatch):
    # atom_complexity has no limit, and past it searches from its key; the
    # default limit of atom_complexities still holds on w, before any
    # enumeration
    w = make_witness("left-ideal", 13)
    assert atom_complexity(w, frozenset(range(13))) == 13

    def fail(*args):
        raise AssertionError("atoms were enumerated past the limit")

    monkeypatch.setattr(measures, "_preimages", fail)
    monkeypatch.setattr(measures, "_subsets", fail)
    with pytest.raises(LimitError, match="exceeds the limit 12"):
        atom_complexities(w)


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
