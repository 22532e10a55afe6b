from random import Random

import pytest
from helpers import (
    EPSILON,
    Nfa,
    dfa_corpus,
    language_upto,
    naive_complexity,
    naive_determinize,
    naive_minimize,
    naive_occurring_letters,
    naive_partition,
    naive_reachable_states,
    nfa_steps,
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

from suffixconvex.automata import (
    Dfa,
    _components,
    _hopcroft,
    _reach_counts,
    accepts,
    apply_word,
    complete_over,
    complexity,
    determinize,
    minimize,
    occurring_letters,
    reachable_states,
)
from suffixconvex.errors import InputError
from suffixconvex.operations import (
    boolean_restricted,
    concat,
    equivalent,
    parse_letter_map,
    reverse,
    star,
)
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
    for d in corpus:
        assert complexity(d) == naive_complexity(d)
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


def hopcroft_partition(d: Dfa) -> list[frozenset[int]]:
    """``_hopcroft``'s classes of d's states as a list of frozensets, after
    checking that they are numbered 0..count-1 with none empty."""
    count, block_of = _hopcroft(d.n, [t.image for t in d.delta.values()], d.finals)
    assert set(block_of) == set(range(count))
    return [frozenset(q for q in range(d.n) if block_of[q] == x) for x in range(count)]


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
    ],
    ids=["one-state", "one-state-final", "all-final", "none-final", "identity-letter",
         "identity-only", "no-letters"],
)
def test_hopcroft_edge_cases(d):
    blocks = hopcroft_partition(d)
    assert set(blocks) == set(naive_partition(d.n, d.delta, d.finals))
    assert sorted(q for block in blocks for q in block) == list(range(d.n))
    assert minimize(d).n == quotient_count_oracle(d)


@pytest.mark.parametrize("n,expected", [(8, 7 * 2**8 + 2**7), (10, 9 * 2**10 + 2**9)])
def test_minimize_regular_product_beyond_default_caps(n, expected):
    # (m-1) 2^n + 2^(n-1) at m = n; 9728 states at n = 10 is out of reach
    # of quadratic refinement
    w = make_witness("regular", n)
    assert complexity(concat(w, w)) == expected


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
    d = make_witness("left-ideal-alt", 4)
    done = complete_over(d, ("a", "b", "c", "d", "e", "f"))
    assert done.n == 5
    assert done.delta["f"].image == (4, 4, 4, 4, 4)
    assert done.delta["a"].image == d.delta["a"].image + (4,)
    assert complete_over(d, d.alphabet) is d
    d7 = make_witness("suffix-free-3", 4)
    assert complete_over(d7, ("a", "b", "c", "d")).n == 5
    with pytest.raises(InputError):
        complete_over(d, ("a", "b"))


def test_complete_over_reorders_without_sink():
    d = make_witness("regular", 3)
    reordered = complete_over(d, ("c", "a", "b"))
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
    from suffixconvex.operations import boolean_unrestricted

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
    from suffixconvex.operations import boolean_unrestricted

    d1 = make_dialect("suffix-closed", 4, ("a", "b", "c", "d", "e"))
    d2 = make_dialect("suffix-closed", 4, ("a", "e", "f", "d", "b"))
    assert complexity(boolean_unrestricted(d1, d2, "union")) == 25


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
            pairs += [(d, complete_over(d, ("a", "b"))), (d, loop)]
    compared = {"same letters": 0, "different letters": 0}
    for d1, d2 in pairs:
        if set(d1.alphabet) == set(d2.alphabet):
            compared["same letters"] += 1
            bound = d1.n * d2.n
        else:
            # equivalent sink-completes both sides, to at most n + 1 states
            # each; complete DFAs of N1 and N2 states that differ do so on
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
    for _ in range(300):
        d = random_dfa_any_start(rng)
        assert reachable_states(d) == naive_reachable_states(d)


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
