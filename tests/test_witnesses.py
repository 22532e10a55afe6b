import pytest
from helpers import injective_dialects

from suffixconvex.automata import complexity, minimize
from suffixconvex.classifiers import classify
from suffixconvex.errors import InputError
from suffixconvex.measures import quotient_complexities
from suffixconvex.operations import (
    BOOL_OPS,
    boolean_restricted,
    boolean_unrestricted,
    complement,
    concat,
    equivalent,
    reverse,
    star,
)
from suffixconvex.witnesses import (
    CLAIMS,
    FAMILIES,
    MIN_N,
    expected,
    make_dialect,
    make_witness,
)


def rows(d):
    return {letter: list(d.delta[letter].image) for letter in d.alphabet}


def test_regular_witness_expansion():
    d = make_witness("regular", 3)
    assert rows(d) == {"a": [1, 2, 0], "b": [1, 0, 2], "c": [0, 1, 0]}
    assert d.initial == 0 and d.finals == {2}


def test_left_ideal_witness_expansion():
    d = make_witness("left-ideal", 4)
    assert rows(d) == {
        "a": [0, 2, 3, 1],
        "b": [0, 2, 1, 3],
        "c": [0, 1, 2, 1],
        "d": [0, 1, 2, 0],
        "e": [1, 1, 1, 1],
    }
    assert d.finals == {3}
    assert make_witness("left-ideal-alt", 4).finals == {1, 2, 3}
    assert make_witness("suffix-closed", 4).finals == {0}


def test_three_letter_suffix_free_expansion():
    d = make_witness("suffix-free-3", 4)
    assert rows(d) == {"a": [3, 2, 1, 3], "b": [3, 2, 1, 3], "c": [1, 3, 2, 3]}
    assert d.finals == {2}
    d5 = make_witness("suffix-free-3", 5)
    # the dead state keeps its all-letter self-loop
    assert all(d5.delta[l](4) == 4 for l in d5.alphabet)


def test_five_letter_suffix_free_witness():
    d = make_witness("suffix-free-5", 5)
    assert d.alphabet == ("a", "b", "c", "d", "e")
    assert rows(d) == {
        "a": [4, 2, 3, 1, 4],
        "b": [4, 2, 1, 3, 4],
        "c": [4, 1, 2, 1, 4],
        "d": [4, 4, 2, 3, 4],
        "e": [1, 4, 4, 4, 4],
    }
    assert d.finals == {1, 3}
    merged = make_witness("suffix-free-5", 4)
    assert merged.alphabet == ("b", "c", "d", "e")
    assert merged.finals == {1}


def test_growing_alphabet_family():
    d = make_witness("suffix-free-n", 6)
    assert d.alphabet == ("a", "b", "c1", "c2", "c3", "c4")
    assert rows(d)["c2"] == [2, 1, 5, 3, 4, 5]
    assert d.finals == {4}


def test_two_letter_star_family():
    d = make_witness("suffix-free-2star", 6)
    assert rows(d) == {
        "a": [5, 2, 3, 1, 4, 5],
        "b": [1, 2, 5, 4, 3, 5],
        "c": [5, 2, 3, 4, 1, 5],
    }
    assert d.finals == {1}
    d7 = make_witness("suffix-free-2star", 7)
    assert rows(d7)["a"] == [6, 2, 3, 1, 5, 4, 6]


def test_witness_alphabet_matches_witness():
    five = ("a", "b", "c", "d", "e")
    letters = {
        "regular": lambda n: ("a", "b", "c"),
        "left-ideal": lambda n: five,
        "left-ideal-alt": lambda n: five,
        "suffix-closed": lambda n: five,
        "suffix-free-5": lambda n: five,
        "suffix-free-n": lambda n: ("a", "b") + tuple(f"c{p}" for p in range(1, n - 1)),
        "suffix-free-3": lambda n: ("a", "b", "c"),
        "suffix-free-2star": lambda n: ("a", "b", "c"),
    }
    assert set(letters) == set(FAMILIES)
    for family in FAMILIES:
        for n in range(MIN_N[family], 13):
            if (family, n) != ("suffix-free-5", 4):
                assert make_witness(family, n).alphabet == letters[family](n)
    # the five-letter suffix-free stream drops a at n=4
    assert make_witness("suffix-free-5", 4).alphabet == ("b", "c", "d", "e")
    assert make_witness("suffix-free-n", 6).alphabet == ("a", "b", "c1", "c2", "c3", "c4")
    with pytest.raises(InputError):
        make_witness("left-ideal", 3)


def test_minimum_sizes_enforced():
    for family in FAMILIES:
        with pytest.raises(InputError):
            make_witness(family, MIN_N[family] - 1)
    with pytest.raises(InputError):
        make_witness("no-such-family", 5)


@pytest.mark.parametrize("family", FAMILIES)
def test_witnesses_are_minimal(family):
    for n in range(MIN_N[family], MIN_N[family] + 3):
        assert complexity(make_witness(family, n)) == n


@pytest.mark.parametrize(
    "family,flags",
    [
        ("left-ideal", (True, False, False, True)),
        ("left-ideal-alt", (True, False, False, True)),
        ("suffix-closed", (False, True, False, True)),
        ("suffix-free-5", (False, False, True, True)),
        ("suffix-free-n", (False, False, True, True)),
        ("suffix-free-3", (False, False, True, True)),
        ("suffix-free-2star", (False, False, True, True)),
        ("regular", (False, False, False, False)),
    ],
)
def test_witnesses_classify_into_declared_classes(family, flags):
    n = max(MIN_N[family], 5)
    report = classify(make_witness(family, n))
    got = (
        report.is_left_ideal,
        report.is_suffix_closed,
        report.is_suffix_free,
        report.is_suffix_convex,
    )
    assert got == flags


def test_suffix_closed_witness_is_complement_of_new_left_ideal():
    for n in range(4, 8):
        assert equivalent(
            make_witness("suffix-closed", n), complement(make_witness("left-ideal-alt", n))
        )


def test_quotient_complexities_of_two_letter_dialect():
    d = make_dialect("suffix-free-5", 5, ("a", None, None, None, "e"))
    assert quotient_complexities(d) == (5, 1, 4, 4, 4)


def test_make_dialect_identity_is_witness():
    for family in FAMILIES:
        n = MIN_N[family]
        w = make_witness(family, n)
        assert make_dialect(family, n, w.alphabet) == w


def test_make_dialect_five_entries_at_merged_size():
    d = make_dialect("suffix-free-5", 4, ("a", None, "c", None, "e"))
    assert d.alphabet == ("a", "c", "e")
    # positions refer to the definition alphabet: the a slot carries the
    # transformation that coincides with b at n=4
    assert list(d.delta["a"].image) == [3, 2, 1, 3]
    pair = make_dialect("suffix-free-5", 4, ("a", "b", None, "d", "e"))
    assert pair.alphabet == ("a", "b", "d", "e")
    assert pair.delta["a"] == pair.delta["b"]


def test_expected_values():
    assert expected("left-ideal", "product-unrestricted", 4, 5) == 29
    assert expected("suffix-closed", "star", None, 7) == 7
    assert expected("suffix-free-3", "union-restricted", 5, 4) == 13
    assert expected("suffix-free-3", "difference-restricted", 5, 4) == 11
    assert expected("suffix-free-5", "semigroup", None, 6) == 629
    assert expected("left-ideal", "semigroup", None, 7) == 117655
    assert expected("regular", "star", None, 6) == 48
    assert expected("regular", "product-restricted", 4, 4) == 56
    assert expected("regular", "product-unrestricted", 4, 4) == 72


def test_expected_rejections():
    with pytest.raises(InputError):
        expected("left-ideal-alt", "product-restricted", 4, 4)
    with pytest.raises(InputError):
        expected("suffix-free-3", "union-restricted", 4, 4)
    with pytest.raises(InputError):
        expected("suffix-free-5", "semigroup", None, 5)
    with pytest.raises(InputError):
        expected("suffix-free-5", "star", None, 6)
    with pytest.raises(InputError):
        expected("suffix-free-n", "semigroup", None, 6)
    with pytest.raises(InputError):
        expected("left-ideal", "union-restricted", None, 4)
    with pytest.raises(InputError):
        expected("left-ideal", "semigroup", None, 3)
    with pytest.raises(InputError, match="family 'left-ideal' needs m >= 4, got 3"):
        expected("left-ideal", "union-restricted", 3, 4)


def test_every_measured_claim_states_its_formula():
    # a claim with rows carries its bound, the atom claims included (theirs
    # is per key), unless it excludes every row it would measure
    for claim in CLAIMS:
        if claim.rows is None or claim.formula is not None:
            continue
        sizes = range(max(claim.rows[0], MIN_N[claim.family]), claim.rows[1] + 1)
        ms = sizes if claim.mode is not None else [None]
        assert all(claim.exclude(m, n) for m in ms for n in sizes), (claim.family, claim.quantity)
    atom = {claim.family: claim.formula for claim in CLAIMS if claim.tag == "atom"}
    assert sorted(atom) == ["left-ideal", "left-ideal-alt", "suffix-closed", "suffix-free-5"]
    assert atom["left-ideal"](4, {1}) == atom["left-ideal-alt"](4, {1}) == 13
    assert atom["suffix-closed"](4, {0}) == 8
    assert atom["suffix-free-5"](4, {1}) == 5


def test_regular_witness_pair_meets_restricted_product_bound():
    # the regular product claims have no harness rows; the restricted one
    # is met by the witness against itself
    for m in range(3, 7):
        for n in range(3, 7):
            product = concat(make_witness("regular", m), make_witness("regular", n))
            assert complexity(product) == expected("regular", "product-restricted", m, n)


def test_two_letter_star_family_meets_star_bound_empirically():
    # frozen from measurements; the claim's dialects are not spelled out
    assert complexity(star(make_witness("suffix-free-2star", 6))) == 17
    assert complexity(star(make_witness("suffix-free-2star", 7))) == 33


def test_every_witness_numbering_is_reachable():
    for family in FAMILIES:
        w = make_witness(family, MIN_N[family] + 1)
        assert minimize(w).n == w.n


def test_formulas_continue_past_the_default_ranges():
    # spot checks one size beyond the harness caps
    d = make_dialect("suffix-closed", 9, ("a", None, None, "d", "e"))
    assert complexity(reverse(d)) == 2**8 + 1
    assert complexity(star(make_witness("suffix-free-3", 9))) == 2**7 + 1
    p1 = make_dialect("left-ideal", 7, ("a", None, None, None, "e"))
    p2 = make_dialect("left-ideal", 7, ("a", None, None, None, "e"))
    assert complexity(concat(p1, p2)) == 13


# --- the negative statements of the claims table, checked by searching
# dialects exhaustively at small sizes


def _claim(family, quantity):
    (claim,) = [c for c in CLAIMS if (c.family, c.quantity) == (family, quantity)]
    return claim


def test_three_letter_boolean_pair_meets_no_bound_at_44():
    # why suffix-free-3's boolean claims skip (m,n)=(4,4): with the witness
    # as first operand, no permutation of a, b, c as second dialect meets a
    # boolean bound there, in either mode (one alphabet, so they agree)
    first = make_witness("suffix-free-3", 4)
    seconds = [make_dialect("suffix-free-3", 4, pi) for pi in injective_dialects(3, "abc", [3])]
    assert len(seconds) == 6
    for mode, boolean in (("restricted", boolean_restricted), ("unrestricted", boolean_unrestricted)):
        claims = {op: _claim("suffix-free-3", f"{op}-{mode}") for op in BOOL_OPS}
        assert all(claim.exclude(4, 4) for claim in claims.values())
        bounds = {op: claim.formula(4, 4) for op, claim in claims.items()}
        best = {op: max(complexity(boolean(first, d, op)) for d in seconds) for op in BOOL_OPS}
        assert bounds == {"union": 10, "symdiff": 10, "difference": 8, "intersection": 6}
        assert best == {"union": 6, "symdiff": 6, "difference": 4, "intersection": 4}


def test_left_ideal_alt_meets_no_product_bound_at_44():
    # why left-ideal-alt's product claims skip every row, against the
    # left-ideal product bounds: with the full witness as first operand at
    # (4,4), no second dialect over a..e keeping at least one letter reaches
    # mn+m+n, and none over the same five letters reaches m+n-1
    first = make_witness("left-ideal-alt", 4)
    sizes = {
        pi: complexity(concat(first, make_dialect("left-ideal-alt", 4, pi)))
        for pi in injective_dialects(5, "abcde", range(1, 6))
    }
    same_alphabet = [size for pi, size in sizes.items() if None not in pi]
    assert (len(sizes), len(same_alphabet)) == (1545, 120)
    for mode in ("restricted", "unrestricted"):
        assert all(
            _claim("left-ideal-alt", f"product-{mode}").exclude(m, n)
            for m in range(4, 7) for n in range(4, 7)
        )
    assert _claim("left-ideal", "product-unrestricted").formula(4, 4) == 24
    assert max(sizes.values()) == 17
    assert _claim("left-ideal", "product-restricted").formula(4, 4) == 7
    assert max(same_alphabet) == 5


def test_no_two_letter_dialect_of_suffix_free_3_meets_the_star_bound():
    # the star bound 2^(n-2)+1 needs all three letters of suffix-free-3
    claim = _claim("suffix-free-3", "star")
    best = {
        n: max(
            complexity(star(make_dialect("suffix-free-3", n, pi)))
            for pi in injective_dialects(3, "ab", [2])
        )
        for n in range(6, 10)
    }
    assert {n: claim.formula(None, n) for n in best} == {6: 17, 7: 33, 8: 65, 9: 129}
    assert best == {6: 15, 7: 23, 8: 33, 9: 45}
