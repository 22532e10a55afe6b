import itertools
from dataclasses import replace
from random import Random

from helpers import (
    brute_force_language,
    class_verdict,
    dfa_corpus,
    eager_classify,
    finite_language_dfa,
    language_upto,
    naive_classify,
    naive_reachable_states,
    random_dfa,
    random_dfa_any_start,
    words_upto,
)

from suffixconvex import classifiers
from suffixconvex.automata import Dfa, accepts, determinize, minimize
from suffixconvex.classifiers import ClassReport, classify, suffix_language
from suffixconvex.operations import complement, equivalent
from suffixconvex.witnesses import FAMILIES, MIN_N, make_witness

EMPTY = Dfa(1, ("a", "b"), {"a": (0,), "b": (0,)}, 0, frozenset())
EPSILON_ONLY = Dfa(2, ("a", "b"), {"a": (1, 1), "b": (1, 1)}, 0, frozenset({0}))


def test_suffix_language_of_single_word():
    d = finite_language_dfa(["ab"], ("a", "b"))
    got = {"".join(w) for w in language_upto(suffix_language(d), 3)}
    assert got == {"", "b", "ab"}


def test_suffix_language_fixed_point_for_suffix_closed():
    d = make_witness("suffix-closed", 4)
    assert equivalent(suffix_language(d), d)


def test_suffix_language_of_empty():
    assert language_upto(suffix_language(EMPTY), 3) == set()


def test_left_ideal_examples():
    ok, _ = class_verdict(make_witness("left-ideal-alt", 4), "left-ideal")
    assert ok
    ok, word = class_verdict(make_witness("regular", 4), "left-ideal")
    assert not ok
    assert word == ("a", "a", "a", "a")  # a^3 accepted, a.a^3 rejected
    assert class_verdict(EMPTY, "left-ideal") == (False, None)


def test_left_ideal_counterexample_is_valid_and_minimal():
    for d in dfa_corpus(seed=61, count=50, max_n=5):
        ok, word = class_verdict(d, "left-ideal")
        if ok or word is None:
            continue
        assert not accepts(d, word)
        assert accepts(d, word[1:])
        shorter = [
            w
            for w in language_upto(d, len(word) - 2)
            for l in d.alphabet
            if not accepts(d, (l,) + w)
        ]
        assert not shorter


def _bad_word_tests(d, longest):
    """Per class, whether a word of length at most longest is a
    counterexample by the word-level definition.

    A suffix w of an accepted word xw has one with |x| < n (the shortest
    x reaching the state before w), so accepted words shorter than
    longest + n supply every such suffix.
    """
    suffixes = {u[i:] for u in brute_force_language(d, longest + d.n - 1) for i in range(len(u) + 1)}

    def has_accepted_proper_suffix(w):
        return any(accepts(d, w[i:]) for i in range(1, len(w) + 1))

    return {
        "suffix-closed": lambda w: w in suffixes and not accepts(d, w),
        "suffix-free": lambda w: accepts(d, w) and has_accepted_proper_suffix(w),
        "suffix-convex": lambda w: (
            w in suffixes and not accepts(d, w) and has_accepted_proper_suffix(w)
        ),
    }


def test_counterexamples_are_bad_and_minimal():
    tags = ("suffix-closed", "suffix-free", "suffix-convex")
    rng = Random(83)
    failures = dict.fromkeys(tags, 0)
    for _ in range(200):
        d = random_dfa_any_start(rng, max_n=5)
        counterexamples = classify(d).counterexamples
        for tag in tags:
            if tag not in counterexamples:
                continue
            word = counterexamples[tag]
            failures[tag] += 1
            bad = _bad_word_tests(d, len(word))[tag]
            assert bad(word)
            smaller = itertools.takewhile(lambda w: w != word, words_upto(d.alphabet, len(word)))
            assert not any(map(bad, smaller))
    assert min(failures.values()) >= 40


def test_classifiers_match_naive_classifiers():
    rng = Random(89)
    corpus = [random_dfa_any_start(rng, max_n=8) for _ in range(2000)]
    corpus += [replace(d, finals=finals) for d in corpus[:300] for finals in (set(), range(d.n))]
    corpus += [make_witness(f, n) for f in FAMILIES for n in range(MIN_N[f], 10)]
    for d in corpus:
        assert classify(d) == naive_classify(d)


def test_classify_matches_eager_classify():
    # the lazy search against the full determinizations it replaced: the
    # same flags and the same word for every class
    rng = Random(97)
    drawn = [random_dfa_any_start(rng) for _ in range(2000)]
    corpus = [
        replace(d, finals=frozenset(finals))
        for d in drawn
        for finals in (d.finals, (), range(d.n))
    ]
    corpus += [make_witness(f, n) for f in FAMILIES for n in range(MIN_N[f], 11)]
    for d in corpus:
        assert classify(d) == eager_classify(d)
    assert sum(not d.alphabet for d in drawn) >= 400
    assert sum(len(naive_reachable_states(d)) < d.n for d in drawn) >= 1000


def test_subset_constructions_per_call(monkeypatch):
    calls = []
    first_words = classifiers._first_words
    monkeypatch.setattr(
        classifiers, "determinize", lambda *args: calls.append("determinize") or determinize(*args)
    )
    monkeypatch.setattr(
        classifiers, "_first_words", lambda *args: calls.append("search") or first_words(*args)
    )
    for d in (make_witness("suffix-free-n", 6), make_witness("regular", 4), EMPTY):
        calls.clear()
        classify(d)
        # one search for all four classes, which expands Σ⁺L and Suff(L)
        # itself, as far as it goes: no subset construction is determinized
        assert calls == ["search"]


def test_regular_witness_at_20_expands_only_part_of_each_construction(monkeypatch):
    # Suff(L) has 2^20 - 1 states here; the search expands 21 subsets of
    # Σ⁺L and 5,034 of Suff(L) before every class has its word, each once
    expanded: list[list[int]] = []
    subset_union = classifiers._subset_union

    def spy(steps, start):
        seen: list[int] = []
        expanded.append(seen)
        union, shifts, mask = subset_union(steps, start)
        return (lambda subset: seen.append(subset) or union(subset)), shifts, mask

    monkeypatch.setattr(classifiers, "_subset_union", spy)
    report = classify(make_witness("regular", 20))
    assert report == ClassReport(
        is_left_ideal=False,
        is_suffix_closed=False,
        is_suffix_free=False,
        is_suffix_convex=False,
        counterexamples={
            "left-ideal": ("a",) * 20,
            "suffix-closed": (),
            "suffix-free": ("c",) + ("a",) * 19,
            "suffix-convex": ("a",) * 20,
        },
    )
    prefixed, suffixes = expanded
    assert (len(prefixed), len(suffixes)) == (21, 5034)
    assert len(set(prefixed)) == len(prefixed) and len(set(suffixes)) == len(suffixes)


def test_suffix_closed_examples():
    ok, _ = class_verdict(make_witness("suffix-closed", 5), "suffix-closed")
    assert ok
    ok, word = class_verdict(make_witness("left-ideal", 4), "suffix-closed")
    assert not ok
    assert word == ()  # the empty word is a suffix of eaa but not accepted
    assert class_verdict(EPSILON_ONLY, "suffix-closed") == (True, None)
    assert class_verdict(EMPTY, "suffix-closed") == (True, None)


def test_suffix_free_examples():
    ok, _ = class_verdict(make_witness("suffix-free-5", 4), "suffix-free")
    assert ok
    ok, word = class_verdict(make_witness("regular", 4), "suffix-free")
    assert not ok
    assert word == ("c", "a", "a", "a")  # accepted, with accepted suffix aaa
    assert class_verdict(EPSILON_ONLY, "suffix-free") == (True, None)
    assert class_verdict(EMPTY, "suffix-free") == (True, None)


def test_suffix_convex_examples():
    ok, _ = class_verdict(make_witness("left-ideal-alt", 4), "suffix-convex")
    assert ok
    ok, _ = class_verdict(make_witness("suffix-free-5", 5), "suffix-convex")
    assert ok
    d = finite_language_dfa(["a", "aba"], ("a", "b"))
    ok, word = class_verdict(d, "suffix-convex")
    assert not ok
    assert word == ("b", "a")


def test_suffix_closed_iff_complement_left_ideal():
    for d in dfa_corpus(seed=67, count=60, max_n=5):
        comp = minimize(complement(d))
        if not comp.finals:
            continue  # L = sigma*: the equivalence presumes a proper language
        assert classify(d).is_suffix_closed == classify(comp).is_left_ideal


def _brute_left_ideal(d, max_len):
    lang = brute_force_language(d, max_len)
    if not lang:
        return False
    return all(accepts(d, (l,) + w) for w in lang for l in d.alphabet)


def _brute_suffix_closed(d, max_len):
    lang = brute_force_language(d, max_len)
    return all(w[i:] in lang for w in lang for i in range(len(w) + 1))


def _brute_suffix_free(d, max_len):
    lang = brute_force_language(d, max_len)
    return not any(w[i:] in lang for w in lang for i in range(1, len(w) + 1))


def _brute_suffix_convex(d, max_len):
    lang = brute_force_language(d, max_len)
    for w in lang:
        for i in range(len(w) + 1):
            middle = w[i:]
            if middle in lang:
                continue
            if any(middle[j:] in lang for j in range(1, len(middle) + 1)):
                return False
    return True


def test_brute_force_agreement_small():
    rng = Random(71)
    for _ in range(120):
        d = random_dfa(rng, max_n=4, max_letters=3)
        report = classify(d)
        assert report.is_left_ideal == _brute_left_ideal(d, 8)
        assert report.is_suffix_closed == _brute_suffix_closed(d, 8)
        assert report.is_suffix_free == _brute_suffix_free(d, 8)
        assert report.is_suffix_convex == _brute_suffix_convex(d, 8)


def test_class_implications_on_corpus():
    for d in dfa_corpus(seed=73, count=80, max_n=5):
        report = classify(minimize(d))
        if report.is_left_ideal or report.is_suffix_closed or report.is_suffix_free:
            assert report.is_suffix_convex


def _empty_states(d):
    # states from which no final is reachable, by plain forward search
    result = []
    for q in range(d.n):
        seen = {q}
        stack = [q]
        found = q in d.finals
        while stack and not found:
            p = stack.pop()
            for letter in d.alphabet:
                r = d.delta[letter](p)
                if r in d.finals:
                    found = True
                    break
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        if not found:
            result.append(q)
    return result


def test_suffix_free_languages_have_an_empty_quotient():
    # same-length word sets are always suffix-free
    rng = Random(79)
    for _ in range(20):
        length = rng.randint(1, 4)
        words = {
            "".join(rng.choice("ab") for _ in range(length)) for _ in range(rng.randint(1, 4))
        }
        m = minimize(finite_language_dfa(sorted(words), ("a", "b")))
        assert classify(m).is_suffix_free
        assert _empty_states(m)
    for family in ("suffix-free-5", "suffix-free-n", "suffix-free-3", "suffix-free-2star"):
        assert _empty_states(minimize(make_witness(family, 6)))


def test_classify_report_shape():
    report = classify(make_witness("regular", 4))
    assert set(report.counterexamples) == {
        "left-ideal",
        "suffix-closed",
        "suffix-free",
        "suffix-convex",
    }
    report = classify(make_witness("left-ideal-alt", 5))
    assert "left-ideal" not in report.counterexamples
    assert "suffix-convex" not in report.counterexamples
