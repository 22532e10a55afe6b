from dataclasses import replace
from random import Random

import pytest
from helpers import (
    EPSILON,
    Nfa,
    appending_walk,
    dfa_corpus,
    every_edge_hopcroft,
    language_upto,
    letterwise_hopcroft,
    memberwise_subsets,
    naive_complete_over,
    naive_complexity,
    naive_coreachable_states,
    naive_determinize,
    naive_minimize,
    naive_occurring_letters,
    naive_partition,
    naive_reachable_states,
    nfa_steps,
    occurring_route_complexity,
    quotient_count_oracle,
    random_dfa_any_start,
    random_dfa_with_edge_finals,
    random_nfa,
    reachable_oracle,
    restrict_to_occurring,
    revalidated,
    singleton_word_dfa,
    walk_reach_counts,
)
from hypothesis import given, settings, strategies as st

from suffixconvex import automata
from suffixconvex.automata import (
    Dfa,
    _components,
    _coreachable,
    _hopcroft,
    _occurring,
    _preimages,
    _reach_counts,
    _subsets,
    _walk,
    accepts,
    apply_word,
    complexity,
    determinize,
    minimize,
    occurring_letters,
    reachable_states,
    reverse_complexity,
)
from suffixconvex.errors import InputError
from suffixconvex.measures import atom_automaton, quotient_complexities
from suffixconvex.operations import (
    boolean_restricted,
    boolean_unrestricted,
    complement,
    concat,
    equivalent,
    parse_letter_map,
    reverse,
    star,
)
from suffixconvex.serialization import read_dfa, write_dfa
from suffixconvex.witnesses import make_dialect, make_witness


def test_apply_word_examples():
    assert apply_word(make_witness("regular", 4), 0, "ab") == 0
    d2 = make_witness("left-ideal", 4)
    assert apply_word(d2, 3, "d") == 0
    assert apply_word(d2, 2, "") == 2


def test_apply_word_rejects_unknown_letter():
    with pytest.raises(InputError):
        apply_word(make_witness("regular", 4), 0, ["a", "z"])


def test_accepts_examples():
    d2 = make_witness("left-ideal", 4)
    assert accepts(d2, "eaa")
    assert accepts(d2, "") == (d2.initial in d2.finals) == False
    assert accepts(make_witness("suffix-closed", 4), "")


def test_dfa_validation():
    with pytest.raises(InputError):
        Dfa(2, ("a",), {"a": (0, 2)}, 0, frozenset())
    with pytest.raises(InputError):
        Dfa(2, ("a",), {"b": (0, 1)}, 0, frozenset())
    with pytest.raises(InputError):
        Dfa(2, ("a", "a"), {"a": (0, 1)}, 0, frozenset())
    with pytest.raises(InputError):
        Dfa(2, ("a",), {"a": (0, 1)}, 5, frozenset())
    with pytest.raises(InputError):
        Dfa(2, ("a",), {"a": (0, 1)}, 0, frozenset({3}))
    with pytest.raises(InputError, match="a DFA needs at least one state"):
        Dfa(0, (), {}, 0, frozenset())
    with pytest.raises(InputError, match="transformation of 'a' has size 3, expected 2"):
        Dfa(2, ("a",), {"a": (0, 1, 1)}, 0, frozenset())


def test_determinize_reversal_of_left_ideal_dialect():
    m4 = make_dialect("left-ideal-alt", 4, ("a", None, None, "d", "e"))
    assert reverse(m4).n == 9  # all reachable subsets, kept distinct


def test_determinize_of_deterministic_nfa_is_isomorphic():
    d = make_witness("regular", 4)
    transitions = frozenset(
        (p, letter, d.delta[letter](p)) for letter in d.alphabet for p in range(d.n)
    )
    nfa = Nfa(d.n, d.alphabet, transitions, frozenset({d.initial}), d.finals)
    got = determinize(*nfa_steps(nfa))
    assert got == d  # witness numbering is already BFS order


def test_determinize_star_nfa_of_suffix_free_has_enough_states():
    from suffixconvex.operations import star

    raw = star(make_witness("suffix-free-3", 4))
    assert raw.n >= 5
    assert minimize(raw).n == 5


def test_determinize_subset_labels_consistent():
    # independent replay of the subset construction over an NFA with
    # epsilon moves
    nfa = Nfa(
        4,
        ("a", "b"),
        frozenset(
            {(0, None, 1), (1, "a", 2), (2, "b", 0), (2, "a", 3), (3, "a", 3), (0, "b", 3)}
        ),
        frozenset({0}),
        frozenset({3}),
    )
    dfa = determinize(*nfa_steps(nfa))

    def closure(states):
        out = set(states)
        changed = True
        while changed:
            changed = False
            for p, letter, q in nfa.transitions:
                if letter is None and p in out and q not in out:
                    out.add(q)
                    changed = True
        return frozenset(out)

    labels = {0: closure(nfa.initials)}
    queue = [0]
    seen = {labels[0]: 0}
    while queue:
        i = queue.pop(0)
        for letter in nfa.alphabet:
            move = {q for p, l, q in nfa.transitions if l == letter and p in labels[i]}
            target = closure(move)
            j = dfa.delta[letter](i)
            if target in seen:
                assert seen[target] == j
            else:
                seen[target] = j
                labels[j] = target
                queue.append(j)
            assert (j in dfa.finals) == bool(target & nfa.finals)
    assert len(seen) == dfa.n


def _has_epsilon_cycle(m: Nfa) -> bool:
    succ: dict[int, set[int]] = {}
    for p, letter, q in m.transitions:
        if letter is EPSILON:
            succ.setdefault(p, set()).add(q)
    for start in succ:
        seen: set[int] = set()
        stack = [start]
        while stack:
            for q in succ.get(stack.pop(), ()):
                if q == start:
                    return True
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
    return False


def test_determinize_matches_naive_determinize_on_random_nfas():
    # same states, same numbering: the Dfa values are equal
    rng = Random(41)
    corpus = [random_nfa(rng) for _ in range(1500)]
    for nfa in corpus:
        d = determinize(*nfa_steps(nfa))
        assert d == naive_determinize(nfa)
        assert revalidated(d) == d  # the unchecked constructor built a valid Dfa
    assert sum(not m.initials for m in corpus) >= 200
    assert sum(_has_epsilon_cycle(m) for m in corpus) >= 500
    assert sum(
        any(all(p != source for source, _, _ in m.transitions) for p in range(m.n))
        for m in corpus
    ) >= 500


def _random_steps(rng: Random) -> tuple[list[list[int]], int]:
    """Bitmask steps over 1..9 states and 0..3 letters, each mask empty one
    time in four, and a random start, empty one time in eight."""
    n = rng.randint(1, 9)
    steps = [
        [0 if rng.random() < 0.25 else rng.randrange(1, 1 << n) for _ in range(n)]
        for _ in range(rng.randint(0, 3))
    ]
    return steps, 0 if rng.random() < 0.125 else rng.randrange(1, 1 << n)


def test_subsets_match_memberwise_subsets():
    # random steps, and the reversed steps of random minimal DFAs from their
    # finals (the reversal and atom searches): same order, same rows
    rng = Random(43)
    cases = [_random_steps(rng) for _ in range(1500)]
    for d in (minimize(random_dfa_with_edge_finals(rng, max_n=9)) for _ in range(800)):
        n, rows, finals, _, _ = _occurring(d)
        cases.append((_preimages(n, rows), sum(1 << q for q in finals)))
    floors = {"no letters, non-empty start": 0, "empty start": 0, "one state": 0,
              "empty subset reached": 0, "40 subsets or more": 0}
    for steps, start in cases:
        order, rows = memberwise_subsets(steps, start)
        assert _subsets(steps, start) == (order, rows)
        assert _subsets(steps, start, numbered=False) == (order, [[] for _ in steps])
        floors["no letters, non-empty start"] += not steps and start != 0
        floors["empty start"] += start == 0
        floors["one state"] += len(steps[0]) == 1 if steps else start == 1
        floors["empty subset reached"] += 0 in order[1:]
        floors["40 subsets or more"] += len(order) >= 40
    assert min(floors.values()) >= 20, floors


@pytest.mark.parametrize(
    "steps, start, order, rows",
    [
        ([], 0b101, [0b101], []),  # no letters: start's bits size the packing
        ([], 0, [0], []),
        ([[0b1]], 0, [0], [[0]]),  # the empty start is its own successor
        ([[0b1]], 0b1, [0b1], [[0]]),  # one state
        ([[0b0], [0b1]], 0b1, [0b1, 0], [[1, 1], [0, 1]]),
        ([[0b10, 0b01], [0b11, 0b10]], 0b01, [0b01, 0b10, 0b11], [[1, 0, 2], [2, 1, 2]]),
    ],
)
def test_subsets_edge_cases(steps, start, order, rows):
    assert memberwise_subsets(steps, start) == (order, rows)
    assert _subsets(steps, start) == (order, rows)
    assert _subsets(steps, start, numbered=False) == (order, [[] for _ in steps])


def test_determinize_empty_initial_set_is_a_sink():
    nfa = Nfa(3, ("a", "b"), frozenset({(0, "a", 1), (1, None, 2)}), frozenset(), frozenset({2}))
    d = determinize(*nfa_steps(nfa))
    assert d == Dfa(1, ("a", "b"), {"a": (0,), "b": (0,)}, 0, frozenset())


def test_minimize_leaves_minimal_witness_unchanged():
    w = make_witness("left-ideal", 5)
    assert minimize(w) == w


def test_minimize_merges_duplicate_sinks():
    # two identical accepting sinks and one unreachable state
    d = Dfa(
        4,
        ("a",),
        {"a": (1, 1, 2, 3)},
        0,
        frozenset({1, 2}),
    )
    m = minimize(d)
    assert m.n == 2
    assert equivalent(d, m)


def test_minimize_matches_naive_minimize_on_corpus():
    # same states, same numbering: the Dfa values are equal
    rng = Random(43)
    corpus = [random_dfa_any_start(rng) for _ in range(1500)]
    # raw constructions of 10^2-10^3 states, some of which minimization shrinks
    pi = parse_letter_map
    raw = [
        concat(make_dialect("suffix-closed", n, pi("a,b,-,d,e")),
               make_dialect("suffix-closed", n, pi("a,e,-,d,b")))
        for n in (7, 20)
    ] + [
        star(make_witness("suffix-free-3", 10)),
        reverse(make_dialect("left-ideal", 9, pi("a,-,c,d,e"))),
        concat(make_witness("regular", 6), make_witness("regular", 6)),
    ]
    for d in corpus + raw:
        m = minimize(d)
        assert m == naive_minimize(d)
        assert revalidated(m) == m  # the unchecked constructor built a valid Dfa
    assert {len(d.alphabet) for d in corpus} == {0, 1, 2, 3}
    assert max(d.n for d in corpus) == 10
    assert [(d.n, minimize(d).n) for d in raw] == [
        (85, 43), (761, 381), (266, 257), (257, 257), (352, 352)
    ]
    assert sum(d.initial != 0 for d in corpus) >= 1000
    assert sum(len(naive_reachable_states(d)) < d.n for d in corpus) >= 500


def test_complexity_matches_naive_complexity_on_corpus():
    rng = Random(47)
    corpus = [random_dfa_with_edge_finals(rng) for _ in range(1200)]
    # raw constructions, numbered by their own search: the walk reuses them
    raw = [op(d) for d in corpus[:300] for op in (reverse, star)]
    for d in corpus + raw:
        assert complexity(d) == naive_complexity(d) == occurring_route_complexity(d)
        assert occurring_letters(d) == naive_occurring_letters(d)
    assert {len(d.alphabet) for d in corpus} == {0, 1, 2, 3}
    assert max(d.n for d in corpus) == 8
    assert sum(d.initial != 0 for d in corpus) >= 700
    assert sum(not d.finals for d in corpus) >= 100
    assert sum(d.finals == frozenset(range(d.n)) for d in corpus) >= 100
    # dropping a letter leaves some reachable states unreachable
    rewalked = sum(
        len(reachable_states(restrict_to_occurring(d))) < len(reachable_states(d))
        for d in corpus
    )
    assert rewalked >= 100
    # each branch of complexity: a dropped letter; a letter that occurs
    # although it takes the initial state into the empty language, so its
    # row is scanned; and numberings that are and are not the identity
    for ds, floor in ((corpus, 250), (raw, 100)):
        assert sum(naive_occurring_letters(d) != frozenset(d.alphabet) for d in ds) >= floor
    scanned = 0
    for d in corpus + raw:
        live, occurring = naive_coreachable_states(d), naive_occurring_letters(d)
        scanned += any(d.delta[c](d.initial) not in live and c in occurring for c in d.alphabet)
    assert scanned >= 15
    identity = [reachable_states(d) == list(range(d.n)) for d in corpus + raw]
    assert sum(identity) >= 600 and identity.count(False) >= 700


def test_walk_matches_appending_walk_on_corpus():
    rng = Random(59)
    corpus = [random_dfa_any_start(rng, 10, 3) for _ in range(600)]
    corpus += [op(d) for d in corpus[:200] for op in (reverse, star)]
    reused = renumbered = 0
    for d in corpus:
        images = [d.delta[letter].image for letter in d.alphabet]
        for start in {d.initial, 0}:
            order, rows, finals = _walk(d.n, images, start, d.finals)
            want = appending_walk(d.n, images, start, d.finals)
            assert (order, [list(row) for row in rows], finals) == want
            reused += rows is images
            renumbered += rows is not images
    assert reused >= 400 and renumbered >= 700


def test_reverse_complexity_matches_complexity_of_reversal():
    rng = Random(67)
    corpus = [random_dfa_with_edge_finals(rng) for _ in range(1500)]
    corpus += [star(d) for d in corpus[:200]]
    for d in corpus:
        assert reverse_complexity(d) == complexity(reverse(d))
    # unreachable states, and letters dropped though they reach some state
    assert sum(len(reachable_states(d)) < d.n for d in corpus) >= 300
    assert sum(occurring_letters(d) != frozenset(d.alphabet) for d in corpus) >= 300


def test_minimize_with_unreachable_only_final_state():
    d = Dfa(4, ("a", "b"), {"a": (1, 2, 1, 3), "b": (0, 1, 2, 2)}, 2, frozenset({0}))
    assert minimize(d) == Dfa(1, ("a", "b"), {"a": (0,), "b": (0,)}, 0, frozenset())


def test_minimize_direct_product_counts():
    d1 = make_dialect("left-ideal-alt", 4, ("a", "b", None, "d", "e"))
    d2 = make_dialect("left-ideal-alt", 5, ("a", "e", None, "d", "b"))
    product = boolean_restricted(d1, d2, "symdiff")
    assert minimize(product).n == 20


def test_minimize_idempotent_and_equivalent_on_corpus():
    for d in dfa_corpus(seed=11, count=60):
        m = minimize(d)
        assert minimize(m) == m
        assert equivalent(d, m)
        assert m.n == quotient_count_oracle(d)


def hopcroft_partition(d: Dfa, refine=_hopcroft) -> list[frozenset[int]]:
    """The classes of d's states that refine (``_hopcroft`` or its oracle)
    returns, as a list of frozensets, after checking that they are numbered
    0..count-1 with none empty."""
    count, block_of = refine(d.n, [t.image for t in d.delta.values()], d.finals)
    assert set(block_of) == set(range(count))
    blocks: list[set[int]] = [set() for _ in range(count)]
    for q, x in enumerate(block_of):
        blocks[x].add(q)
    return [frozenset(block) for block in blocks]


def test_hopcroft_matches_naive_partition_on_corpus():
    corpus = dfa_corpus(seed=31, count=1200, max_n=10)
    for d in corpus:
        blocks = hopcroft_partition(d)
        expected = naive_partition(d.n, d.delta, d.finals)
        assert len(blocks) == len(set(blocks))
        assert set(blocks) == set(expected)
        assert minimize(d).n == quotient_count_oracle(d)
    assert max(d.n for d in corpus) == 10


@pytest.mark.parametrize(
    "d",
    [
        Dfa(1, ("a",), {"a": (0,)}, 0, frozenset()),
        Dfa(1, ("a", "b"), {"a": (0,), "b": (0,)}, 0, frozenset({0})),
        Dfa(4, ("a", "b"), {"a": (1, 2, 3, 0), "b": (0, 0, 1, 2)}, 0, frozenset(range(4))),
        Dfa(4, ("a", "b"), {"a": (1, 2, 3, 0), "b": (0, 0, 1, 2)}, 0, frozenset()),
        Dfa(4, ("a", "b"), {"a": (0, 1, 2, 3), "b": (1, 2, 3, 3)}, 0, frozenset({3})),
        Dfa(3, ("a",), {"a": (0, 1, 2)}, 0, frozenset({1})),
        Dfa(3, (), {}, 0, frozenset({1})),
        Dfa(2, ("a",), {"a": (1, 0)}, 0, frozenset({1})),
        Dfa(5, ("a", "b"), {"a": (1, 2, 3, 4, 4), "b": (0, 0, 0, 0, 4)}, 0, frozenset({4})),
        Dfa(5, ("a", "b"), {"a": (1, 2, 3, 4, 4), "b": (0, 0, 0, 0, 4)}, 0, frozenset(range(4))),
    ],
    ids=["one-state", "one-state-final", "all-final", "none-final", "identity-letter",
         "identity-only", "no-letters", "two-singletons", "one-final", "one-non-final"],
)
def test_hopcroft_edge_cases(d):
    # a DFA with one final or one non-final state starts with a block of
    # one state, settled before the first split
    blocks = hopcroft_partition(d)
    assert set(blocks) == set(naive_partition(d.n, d.delta, d.finals))
    assert set(blocks) == set(hopcroft_partition(d, every_edge_hopcroft))
    assert sorted(q for block in blocks for q in block) == list(range(d.n))
    assert minimize(d).n == quotient_count_oracle(d)


@pytest.mark.parametrize("n,expected", [(8, 7 * 2**8 + 2**7), (10, 9 * 2**10 + 2**9)])
def test_minimize_regular_product_beyond_default_caps(n, expected):
    # (m-1) 2^n + 2^(n-1) at m = n; 9728 states at n = 10 is out of reach
    # of quadratic refinement
    w = make_witness("regular", n)
    assert complexity(concat(w, w)) == expected


def test_hopcroft_matches_letterwise_hopcroft_on_corpus():
    corpus = dfa_corpus(seed=37, count=600, max_n=40, max_letters=5)
    for d in corpus:
        assert set(hopcroft_partition(d)) == set(hopcroft_partition(d, letterwise_hopcroft))
    assert max(d.n for d in corpus) == 40
    assert max(len(d.alphabet) for d in corpus) == 5
    assert sum(len(reachable_states(d)) < d.n for d in corpus) > 100


def _left_ideal_40(letters):
    return make_dialect("left-ideal", 40, letters)


# the raw constructions of the benchmark's ops-large workload: beyond the
# reach of quadratic naive_partition
LARGE_CONSTRUCTIONS = pytest.mark.parametrize(
    "build",
    [
        lambda: concat(make_witness("regular", 8), make_witness("regular", 8)),
        lambda: boolean_restricted(
            _left_ideal_40(("a", None, "c", None, "e")), _left_ideal_40(("a", None, "e", None, "c")),
            "union",
        ),
        lambda: boolean_unrestricted(
            _left_ideal_40(("a", "b", "c", "d", "e")), _left_ideal_40(("a", "e", "f", "d", "b")),
            "union",
        ),
        lambda: reverse(make_dialect("left-ideal", 11, ("a", None, "c", "d", "e"))),
        lambda: star(make_witness("suffix-free-3", 12)),
    ],
    ids=["regular-concat-8x8", "left-ideal-union-restricted-40x40",
         "left-ideal-union-unrestricted-40x40", "left-ideal-reverse-11", "suffix-free-3-star-12"],
)


@LARGE_CONSTRUCTIONS
def test_hopcroft_matches_letterwise_hopcroft_on_large_constructions(build):
    d = build()
    assert 1025 <= d.n <= 1920
    assert set(hopcroft_partition(d)) == set(hopcroft_partition(d, letterwise_hopcroft))


def test_hopcroft_splits_a_long_chain_into_singletons():
    # a: q -> min(q+1, n-1), b: q -> 0, final n-1: state q first reaches the
    # final state after n-1-q letters a, so all n states are distinct, and a
    # refinement that split off one state per round would take n rounds
    n = 30_000
    a = [min(q + 1, n - 1) for q in range(n)]
    count, block_of = _hopcroft(n, [a, [0] * n], [n - 1])
    assert count == n
    assert sorted(block_of) == list(range(n))
    # every split settles a state, whose preimage edges the kernel passes
    # over from then on; the reference marks them all and splits the same
    assert every_edge_hopcroft(n, [a, [0] * n], [n - 1])[0] == n


def test_hopcroft_matches_every_edge_hopcroft_on_corpus():
    # the kernel passes over preimage edges into settled states, those
    # alone in their block; the reference marks every edge
    corpus = dfa_corpus(seed=2901, count=1000, max_n=40, max_letters=5)
    for d in corpus:
        assert set(hopcroft_partition(d)) == set(hopcroft_partition(d, every_edge_hopcroft))
    assert max(d.n for d in corpus) == 40
    assert max(len(d.alphabet) for d in corpus) == 5
    # an initial block of one state is settled before the first split
    assert sum(len(d.finals) == 1 or len(d.finals) == d.n - 1 for d in corpus if d.n > 2) > 30


@LARGE_CONSTRUCTIONS
def test_hopcroft_matches_every_edge_hopcroft_on_large_constructions(build):
    d = build()
    assert set(hopcroft_partition(d)) == set(hopcroft_partition(d, every_edge_hopcroft))


def test_reverse_is_marked_minimal_exactly_when_its_operand_is_accessible():
    # Brzozowski: the subset construction on the reversal of an accessible
    # DFA is minimal; every marked DFA counts as its validated unmarked
    # copy does, and is that copy's minimal DFA, numbered the same
    rng = Random(2902)
    seen = {True: 0, False: 0}
    for _ in range(1000):
        d = random_dfa_any_start(rng)
        accessible = len(naive_reachable_states(d)) == d.n
        seen[accessible] += 1
        m = minimize(d)
        # the atom of the finals' own key, F, holds the empty word
        results = [reverse(d), m, reverse(m), atom_automaton(m, m.finals)]
        assert results[0]._minimal is accessible
        assert all(r._minimal for r in results[1:])
        for r in results:
            copy = revalidated(r)
            assert not copy._minimal
            assert complexity(r) == complexity(copy)
            if r._minimal:
                assert minimize(copy) == r
                assert minimize(r) is r
    assert min(seen.values()) >= 300, seen


def test_marked_dfas_are_counted_with_no_walk_and_no_refinement(monkeypatch):
    r = reverse(make_dialect("left-ideal", 8, ("a", None, "c", "d", "e")))
    m = minimize(make_witness("suffix-closed", 6))
    atom = atom_automaton(m, frozenset(range(6)))
    # every letter occurs in each, so complexity needs no walk over fewer
    want = [complexity(revalidated(x)) for x in (r, m, atom)]
    assert want == [2**7 + 1, 6, 2**5]
    want_quotients = quotient_complexities(make_witness("suffix-closed", 6))

    def fail(*args):
        raise AssertionError("a marked DFA was walked or refined")

    monkeypatch.setattr(automata, "_hopcroft", fail)
    monkeypatch.setattr(automata, "_walk", fail)
    assert [complexity(x) for x in (r, m, atom)] == want
    assert minimize(r) is r
    assert minimize(m) is m
    assert minimize(atom) is atom
    assert quotient_complexities(m) == want_quotients


def test_reversal_of_an_inaccessible_dfa_is_refined(monkeypatch):
    # state 1 is unreachable and the only final state, so L is empty, but
    # the reversal reaches two subsets, {1} and the empty one
    d = Dfa(2, ("a",), {"a": (0, 0)}, 0, frozenset({1}))
    r = reverse(d)
    assert not r._minimal
    assert (r.n, minimize(r).n) == (2, 1)
    refinements = []
    refine = automata._hopcroft

    def spy(*args):
        refinements.append(args[0])
        return refine(*args)

    monkeypatch.setattr(automata, "_hopcroft", spy)
    assert complexity(r) == 1
    assert refinements == [2]


def test_copies_of_a_marked_dfa_are_unmarked():
    r = reverse(make_dialect("left-ideal", 6, ("a", None, "c", "d", "e")))
    assert r._minimal
    again = read_dfa(write_dfa(r))
    assert again == r
    for copy in (again, complement(r), replace(r, finals=frozenset({0}))):
        assert not copy._minimal
        assert "_minimal" not in vars(copy)
        assert complexity(copy) == naive_complexity(copy)


def test_equivalent_examples():
    d = make_witness("suffix-closed", 5)
    assert equivalent(d, minimize(d))
    from suffixconvex.operations import complement

    assert equivalent(
        make_witness("left-ideal-alt", 4), complement(make_witness("suffix-closed", 4))
    )
    # the single-final left-ideal stream is a different language
    assert not equivalent(
        make_witness("left-ideal", 4), complement(make_witness("suffix-closed", 4))
    )
    assert not equivalent(make_witness("left-ideal", 4), make_witness("left-ideal", 5))


def test_equivalent_over_different_alphabets():
    only_a = singleton_word_dfa("a", ("a",))
    with_dead_b = singleton_word_dfa("a", ("a", "b"))
    assert equivalent(only_a, with_dead_b)
    assert not equivalent(only_a, singleton_word_dfa("b", ("a", "b")))


def test_complete_over():
    # the oracle that completes the product test's operands
    d = make_witness("left-ideal-alt", 4)
    done = naive_complete_over(d, ("a", "b", "c", "d", "e", "f"))
    assert done.n == 5
    assert done.delta["f"].image == (4, 4, 4, 4, 4)
    assert done.delta["a"].image == d.delta["a"].image + (4,)
    assert naive_complete_over(d, d.alphabet) is d
    d7 = make_witness("suffix-free-3", 4)
    assert naive_complete_over(d7, ("a", "b", "c", "d")).n == 5
    with pytest.raises(InputError):
        naive_complete_over(d, ("a", "b"))
    with pytest.raises(InputError, match="sigma letters must be unique"):
        naive_complete_over(d, ("a", "b", "c", "d", "e", "a"))


def test_complete_over_reorders_without_sink():
    d = make_witness("regular", 3)
    reordered = naive_complete_over(d, ("c", "a", "b"))
    assert reordered.n == d.n
    assert reordered.alphabet == ("c", "a", "b")
    assert equivalent(d, reordered)


def test_equivalent_with_empty_alphabet_side():
    eps = Dfa(1, (), {}, 0, frozenset({0}))
    eps_over_a = Dfa(2, ("a",), {"a": (1, 1)}, 0, frozenset({0}))
    a_star = Dfa(1, ("a",), {"a": (0,)}, 0, frozenset({0}))
    assert equivalent(eps, eps_over_a)
    assert not equivalent(eps, a_star)


def test_occurring_letters_on_unrestricted_products():
    d1 = make_dialect("suffix-closed", 4, ("a", "b", "c", "d", "e"))
    d2 = make_dialect("suffix-closed", 4, ("a", "e", "f", "d", "b"))
    inter = boolean_unrestricted(d1, d2, "intersection")
    assert occurring_letters(inter) == frozenset("abde")
    diff = boolean_unrestricted(d1, d2, "difference")
    assert occurring_letters(diff) == frozenset("abcde")


def test_occurring_letters_empty_language():
    empty = Dfa(1, ("a", "b"), {"a": (0,), "b": (0,)}, 0, frozenset())
    assert occurring_letters(empty) == frozenset()
    assert complexity(empty) == 1


def test_complexity_examples():
    assert complexity(make_witness("suffix-free-5", 6)) == 6
    # epsilon-only language over a letter that never occurs
    eps_only = Dfa(2, ("a",), {"a": (1, 1)}, 0, frozenset({0}))
    assert complexity(eps_only) == 1

    d1 = make_dialect("suffix-closed", 4, ("a", "b", "c", "d", "e"))
    d2 = make_dialect("suffix-closed", 4, ("a", "e", "f", "d", "b"))
    assert complexity(boolean_unrestricted(d1, d2, "union")) == 25

    # L = {ba}: a takes the initial state into the empty language, yet occurs
    ba = Dfa(4, ("a", "b"), {"a": (3, 2, 3, 3), "b": (1, 3, 3, 3)}, 0, frozenset({2}))
    assert complexity(ba) == 4 and occurring_letters(ba) == frozenset("ab")
    assert complexity(replace(ba, finals=frozenset({1}))) == 3  # L = {b}: a is dropped


def test_complement_preserves_minimal_size_on_corpus():
    from suffixconvex.operations import complement

    for d in dfa_corpus(seed=23, count=40, max_n=5):
        assert minimize(complement(d)).n == minimize(d).n


def test_double_reversal_determinization_is_minimal_small():
    for d in dfa_corpus(seed=5, count=30, max_n=5):
        double = reverse(reverse(d))
        assert double.n == minimize(d).n
        if occurring_letters(d) == frozenset(d.alphabet):
            assert double.n == complexity(d)


def test_equivalent_matches_exact_word_oracle():
    # two DFAs that differ at all differ on a word shorter than the
    # product of their sizes, so the bounded word check is exact
    from helpers import same_language_upto

    corpus = dfa_corpus(seed=13, count=40, max_n=4, max_letters=2)
    pairs = list(zip(corpus[0::2], corpus[1::2]))
    # a one-letter DFA against itself with b added, as a sink (the same
    # language) and as a self-loop (a different one once it accepts a word)
    for d in corpus:
        if d.alphabet == ("a",):
            loop = Dfa(d.n, ("a", "b"), {**d.delta, "b": tuple(range(d.n))}, 0, d.finals)
            pairs += [(d, naive_complete_over(d, ("a", "b"))), (d, loop)]
    compared = {"same letters": 0, "different letters": 0}
    for d1, d2 in pairs:
        if set(d1.alphabet) == set(d2.alphabet):
            compared["same letters"] += 1
            bound = d1.n * d2.n
        else:
            # equivalent reads each side with its sink, so at most n + 1
            # states each; complete DFAs of N1 and N2 states that differ do so on
            # a word of length at most N1 + N2 - 2 (Moore's refinement of
            # their disjoint union), and the product bound (n1+1)(n2+1)
            # would mean 2^26 words for a pair of 4-state automata
            compared["different letters"] += 1
            bound = d1.n + d2.n
        assert equivalent(d1, d2) == same_language_upto(d1, d2, bound)
    assert compared["same letters"] >= 8 and compared["different letters"] >= 30


def test_components_and_reach_counts_match_walks():
    rng = Random(71)
    graphs = [
        (1, []),  # one state, no letters
        (1, [[0], [0]]),  # one state with self-loops
        (5, [list(range(5))]),  # every state a sink with a self-loop
        (5, []),  # every state a sink without edges
        (6, [[(q + 1) % 6 for q in range(6)], list(range(6))]),  # one cycle
        (4, [[3, 3, 3, 3], [1, 0, 3, 3]]),  # a two-state cycle above a sink
        (3000, [[min(q + 1, 2999) for q in range(3000)]]),  # deeper than the recursion limit
    ]
    for _ in range(600):
        d = random_dfa_with_edge_finals(rng, max_n=12)
        graphs.append((d.n, [d.delta[letter].image for letter in d.alphabet]))
    merged = 0
    for n, rows in graphs:
        count, comp = _components(n, rows)
        assert sorted(set(comp)) == list(range(count))
        merged += count < n
        if n > 100:  # the chain: every state its own component
            assert count == n and _reach_counts(n, rows) == [n - q for q in range(n)]
            continue
        assert _reach_counts(n, rows) == walk_reach_counts(n, rows)
        reach = [_reachable(rows, q) for q in range(n)]
        for p in range(n):
            for row in rows:  # components are numbered sinks first
                assert comp[row[p]] <= comp[p]
            for q in range(n):
                assert (comp[p] == comp[q]) == (q in reach[p] and p in reach[q])
    assert merged >= 100  # graphs with a component of more than one state


def _reachable(rows, q):
    """The states reachable from q, by a plain depth-first search."""
    seen = {q}
    stack = [q]
    while stack:
        p = stack.pop()
        for row in rows:
            if row[p] not in seen:
                seen.add(row[p])
                stack.append(row[p])
    return seen


def test_reachability_matches_oracle():
    for d in dfa_corpus(seed=7, count=40):
        assert set(reachable_states(d)) == reachable_oracle(d)
    rng = Random(47)
    live_counts = []
    for _ in range(300):
        d = random_dfa_any_start(rng)
        assert reachable_states(d) == naive_reachable_states(d)
        live = _coreachable(d.n, [d.delta[letter].image for letter in d.alphabet], d.finals)
        assert {q for q in range(d.n) if live[q]} == naive_coreachable_states(d)
        live_counts.append((sum(live), d.n))
    # empty, partial and full co-reachable sets all occur
    assert sum(k == 0 for k, _ in live_counts) >= 30
    assert sum(0 < k < n for k, n in live_counts) >= 80
    assert sum(k == n for k, n in live_counts) >= 100


def test_language_of_minimized_matches_brute_force():
    for d in dfa_corpus(seed=9, count=20, max_n=4):
        m = minimize(d)
        assert language_upto(d, 5) == language_upto(m, 5)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_minimize_properties_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=1, max_value=3))
    alphabet = tuple("abc"[:k])
    delta = {
        l: data.draw(st.tuples(*[st.integers(0, n - 1) for _ in range(n)]))
        for l in alphabet
    }
    finals = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    d = Dfa(n, alphabet, delta, 0, finals)
    m = minimize(d)
    assert minimize(m) == m
    assert equivalent(d, m)
    assert m.n == quotient_count_oracle(d)
