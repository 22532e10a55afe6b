from random import Random

import pytest
from helpers import (
    dfa_corpus,
    finite_language_dfa,
    language_upto,
    naive_concat,
    naive_prefixed,
    naive_product,
    naive_reverse,
    naive_star,
    naive_suffix_language,
    random_dfa_any_start,
    random_dfa_with_edge_finals,
    revalidated,
    singleton_word_dfa,
)

from suffixconvex.automata import (
    Dfa,
    complete_over,
    complexity,
    minimize,
    union_alphabet,
)
from suffixconvex.classifiers import _prefixed, is_left_ideal, suffix_language
from suffixconvex.errors import InputError
from suffixconvex.operations import (
    BOOL_OPS,
    _boolean_product,
    apply_dialect,
    boolean_restricted,
    boolean_unrestricted,
    complement,
    concat,
    equivalent,
    format_letter_map,
    parse_letter_map,
    reverse,
    star,
)
from suffixconvex.witnesses import make_dialect, make_witness


def test_letter_map_parsing():
    assert parse_letter_map("a,-,-,d,e") == ("a", None, None, "d", "e")
    assert parse_letter_map("(b,-,d)") == ("b", None, "d")
    assert format_letter_map(("a", None, "c")) == "(a,-,c)"


def test_dialect_of_finite_language():
    toy = finite_language_dfa(["a", "ab", "ac"], ("a", "b", "c"))
    renamed = apply_dialect(toy, ("b", None, "d"))
    assert renamed.alphabet == ("b", "d")
    assert {"".join(w) for w in language_upto(renamed, 4)} == {"b", "bd"}


def test_dialect_identity_and_errors():
    d = make_witness("left-ideal", 4)
    assert apply_dialect(d, ("a", "b", "c", "d", "e")) == d
    assert apply_dialect(d, d.alphabet) == d
    with pytest.raises(InputError):
        apply_dialect(d, ("a", "a", None, None, None))
    with pytest.raises(InputError):
        apply_dialect(d, ("a",) * 6)


def test_dialect_keeps_minimality_of_left_ideal():
    d = apply_dialect(make_witness("left-ideal", 5), ("a", None, None, "d", "e"))
    assert d.alphabet == ("a", "d", "e")
    assert complexity(d) == 5


def test_boolean_restricted_examples():
    d1 = make_dialect("left-ideal-alt", 4, ("a", "b", None, "d", "e"))
    d2 = make_dialect("left-ideal-alt", 5, ("a", "e", None, "d", "b"))
    assert complexity(boolean_restricted(d1, d2, "symdiff")) == 20

    d = make_witness("suffix-closed", 4)
    assert complexity(boolean_restricted(d, d, "union")) == complexity(d)

    f1 = make_witness("suffix-free-3", 5)
    f2 = make_dialect("suffix-free-3", 5, ("b", "a", "c"))
    assert complexity(boolean_restricted(f1, f2, "intersection")) == 11


def test_boolean_restricted_rejects_alphabet_mismatch():
    d1 = make_dialect("suffix-closed", 4, ("a", "b", "c", "d", "e"))
    d2 = make_dialect("suffix-closed", 4, ("a", "e", "f", "d", "b"))
    with pytest.raises(InputError):
        boolean_restricted(d1, d2, "union")
    with pytest.raises(InputError):
        boolean_restricted(d1, d1, "nand")


def test_boolean_unrestricted_examples():
    d1 = make_dialect("suffix-closed", 4, ("a", "b", "c", "d", "e"))
    d2 = make_dialect("suffix-closed", 4, ("a", "e", "f", "d", "b"))
    assert complexity(boolean_unrestricted(d1, d2, "union")) == 25
    assert complexity(boolean_unrestricted(d1, d2, "difference")) == 20
    m1 = make_dialect("left-ideal-alt", 4, ("a", "b", "c", "d", "e"))
    m2 = make_dialect("left-ideal-alt", 4, ("a", "e", "f", "d", "b"))
    assert complexity(boolean_unrestricted(m1, m2, "intersection")) == 16


def test_product_matches_naive_product_on_corpus():
    # same states, same numbering: the Dfa values are equal; one shared
    # product per pair gives every operation, each equal to the public call
    rng = Random(53)
    restricted = unrestricted = 0
    for _ in range(600):
        d1 = random_dfa_any_start(rng, max_n=8)
        d2 = random_dfa_any_start(rng, max_n=8)
        if set(d1.alphabet) == set(d2.alphabet):
            letters = list(d2.alphabet)
            rng.shuffle(letters)
            d2 = complete_over(d2, letters)  # the same letters in another order
            c1, c2, mode, public = d1, d2, "restricted", boolean_restricted
            restricted += 1
        else:
            sigma = union_alphabet(d1, d2)
            c1, c2 = complete_over(d1, sigma), complete_over(d2, sigma)
            mode, public = "unrestricted", boolean_unrestricted
            with pytest.raises(InputError):
                _boolean_product(d1, d2, "restricted")
            unrestricted += 1
        product = _boolean_product(d1, d2, mode)
        for op in BOOL_OPS:
            d = product(op)
            assert d == naive_product(c1, c2, op)
            assert d == public(d1, d2, op)
            assert revalidated(d) == d  # the unchecked constructor built a valid Dfa
    assert restricted >= 100 and unrestricted >= 300


def _renamed(rng: Random, d: Dfa) -> Dfa:
    """d with its letters renamed to distinct letters of "abcd" in random order."""
    names = tuple(rng.sample("abcd", len(d.alphabet)))
    delta = {new: d.delta[old] for old, new in zip(d.alphabet, names)}
    return Dfa(d.n, names, delta, d.initial, d.finals)


def test_subset_constructions_match_nfa_oracles():
    # same states, same numbering: the Dfa values are equal
    rng = Random(71)
    corpus = [random_dfa_with_edge_finals(rng) for _ in range(1600)]
    seconds = [_renamed(rng, random_dfa_with_edge_finals(rng)) for _ in corpus]
    for d, e in zip(corpus, seconds):
        pairs = (
            (reverse(d), naive_reverse(d)),
            (star(d), naive_star(d)),
            (concat(d, e), naive_concat(d, e)),
            (suffix_language(d), naive_suffix_language(d)),
            (_prefixed(d), naive_prefixed(d)),
        )
        for got, want in pairs:
            assert got == want
            assert revalidated(got) == got  # the unchecked constructor built a valid Dfa
    assert sum(not d.alphabet for d in corpus) >= 200
    assert sum(not d.finals for d in corpus) >= 200
    assert sum(d.finals == frozenset(range(d.n)) for d in corpus) >= 200
    assert sum(d.initial in d.finals for d in corpus) >= 400
    assert sum(d.initial != 0 for d in corpus) >= 800
    assert sum(set(d.alphabet) != set(e.alphabet) for d, e in zip(corpus, seconds)) >= 800


def test_product_with_a_single_state_operand():
    d = finite_language_dfa(["a", "ba"], ("a", "b"))
    everything = Dfa(1, ("b", "a"), {"a": (0,), "b": (0,)}, 0, frozenset({0}))
    inter = boolean_restricted(d, everything, "intersection")
    assert inter.n == d.n and equivalent(inter, d)
    union = boolean_restricted(d, everything, "union")
    assert union.finals == frozenset(range(union.n))
    assert equivalent(boolean_restricted(everything, d, "difference"), complement(d))
    for op in BOOL_OPS:
        assert boolean_restricted(d, everything, op) == naive_product(d, everything, op)


def test_boolean_agrees_with_word_semantics():
    d1 = finite_language_dfa(["a", "ba"], ("a", "b"))
    d2 = finite_language_dfa(["a", "bb"], ("a", "b"))
    cases = {
        "union": {"a", "ba", "bb"},
        "symdiff": {"ba", "bb"},
        "difference": {"ba"},
        "intersection": {"a"},
    }
    for op, want in cases.items():
        got = boolean_restricted(d1, d2, op)
        assert {"".join(w) for w in language_upto(got, 4)} == want


def test_concat_examples():
    l1 = make_dialect("left-ideal", 4, ("a", None, None, None, "e"))
    assert complexity(concat(l1, l1)) == 7

    s1 = make_dialect("suffix-closed", 4, ("a", "b", None, "d", "e"))
    s2 = make_dialect("suffix-closed", 4, ("a", "e", None, "d", "b"))
    assert complexity(concat(s1, s2)) == 13

    f1 = make_witness("suffix-free-3", 5)
    f2 = make_dialect("suffix-free-3", 5, ("c", "a", "b"))
    assert complexity(concat(f1, f2)) == 33


def test_concat_word_semantics():
    d1 = finite_language_dfa(["a", "bb"], ("a", "b"))
    d2 = finite_language_dfa(["", "b"], ("a", "b"))
    got = {"".join(w) for w in language_upto(concat(d1, d2), 4)}
    assert got == {"a", "ab", "bb", "bbb"}


def test_concat_associative_on_small_corpus():
    corpus = dfa_corpus(seed=31, count=9, max_n=4, max_letters=2)
    for d1, d2, d3 in zip(corpus[0::3], corpus[1::3], corpus[2::3]):
        left = concat(concat(d1, d2), d3)
        right = concat(d1, concat(d2, d3))
        assert equivalent(left, right)


def test_star_examples():
    m4 = make_dialect("left-ideal-alt", 4, ("a", None, None, "d", "e"))
    assert complexity(star(m4)) == 5
    sc4 = make_dialect("suffix-closed", 4, ("a", None, None, "d", "e"))
    assert complexity(star(sc4)) == 4
    assert equivalent(star(sc4), sc4)
    assert complexity(star(make_witness("suffix-free-3", 5))) == 9


def test_star_of_star_on_corpus():
    for d in dfa_corpus(seed=41, count=15, max_n=4):
        once = star(d)
        assert equivalent(star(once), once)


def test_star_word_semantics():
    d = singleton_word_dfa("ab", ("a", "b"))
    got = {"".join(w) for w in language_upto(star(d), 6)}
    assert got == {"", "ab", "abab", "ababab"}


def test_reverse_examples():
    m4 = make_dialect("left-ideal-alt", 4, ("a", None, None, "d", "e"))
    assert complexity(reverse(m4)) == 9
    d5 = make_dialect("suffix-free-5", 4, ("a", None, "c", None, "e"))
    assert complexity(reverse(d5)) == 5
    single = singleton_word_dfa("a", ("a", "b"))
    assert equivalent(reverse(single), single)


def test_reverse_involution_on_corpus():
    for d in dfa_corpus(seed=43, count=20, max_n=5):
        assert equivalent(reverse(reverse(d)), d)


def test_reverse_word_semantics_on_corpus():
    for d in dfa_corpus(seed=59, count=15, max_n=4, max_letters=2):
        reversed_words = {w[::-1] for w in language_upto(d, 5)}
        assert language_upto(reverse(d), 5) == reversed_words


def test_complement_examples():
    e4 = make_witness("left-ideal-alt", 4)
    d4 = make_witness("suffix-closed", 4)
    assert equivalent(complement(e4), d4)
    w = make_witness("left-ideal", 6)
    assert complement(complement(w)) == w
    assert complexity(complement(w)) == 6


def test_demorgan_on_dialect_pairs():
    d1 = make_dialect("suffix-closed", 4, ("a", "b", None, "d", "e"))
    d2 = make_dialect("suffix-closed", 5, ("a", "e", None, "d", "b"))
    lhs = boolean_restricted(d1, d2, "union")
    rhs = complement(boolean_restricted(complement(d1), complement(d2), "intersection"))
    assert equivalent(lhs, rhs)
    assert complexity(lhs) == complexity(rhs) == 20


def test_demorgan_on_corpus():
    corpus = dfa_corpus(seed=47, count=24, max_n=4, max_letters=2)
    checked = 0
    for d1, d2 in zip(corpus[0::2], corpus[1::2]):
        if set(d1.alphabet) != set(d2.alphabet):
            continue
        checked += 1
        lhs = boolean_restricted(d1, d2, "union")
        rhs = complement(boolean_restricted(complement(d1), complement(d2), "intersection"))
        assert equivalent(lhs, rhs)
    assert checked >= 5


def test_left_ideal_upper_bounds_for_star_and_reverse():
    # random left ideals built as (anything)* prefix closures of random languages
    count = 0
    for d in dfa_corpus(seed=53, count=40, max_n=4, max_letters=2):
        sigma_star = Dfa(1, d.alphabet, {l: (0,) for l in d.alphabet}, 0, frozenset({0}))
        ideal = minimize(concat(sigma_star, d))
        ok, _ = is_left_ideal(ideal)
        if not ok:
            continue
        count += 1
        n = ideal.n
        assert complexity(star(ideal)) <= n + 1
        assert complexity(reverse(ideal)) <= 2 ** (n - 1) + 1
    assert count >= 20
