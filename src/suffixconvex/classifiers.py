"""Decision procedures for the suffix-convex language classes.

Each predicate answers at the automaton level and, on failure, returns
the length-lexicographically smallest counterexample word (letters
compared in alphabet order).  All four tests are one breadth-first
search, ``_first_word``, over tuples of states of at most three DFAs
derived from d, for the first word w whose acceptance by each automaton
matches a wanted pattern:

    test           automata searched    wanted pattern          fails on a word of
    left ideal     (ΣL, L)              accept, reject          ΣL∖L
    suffix-closed  (Suff(L), L)         accept, reject          Suff(L)∖L
    suffix-free    (L, Σ⁺L)             accept, accept          L∩Σ⁺L
    suffix-convex  (Σ⁺L, Suff(L), L)    accept, accept, reject  Σ⁺L∩Suff(L)∖L

A left ideal must also be non-empty: the walk over d's reachable
states (``automata._walk``) reaches a final state.  ΣL is built directly
as an (n+1)-state DFA, so the left-ideal test needs no subset
construction; Σ⁺L and Suff(L) are subset constructions on d's
transitions, handed to ``automata.determinize`` as bitmask steps, and
``classify`` builds each of them once, Suff(L) from the useful states of
one walk (``automata._occurring``).

Two identities make these the counterexamples of the definitions:

- {lw : w ∈ L, lw ∉ L} is exactly ΣL∖L, so one search returns the
  smallest counterexample over all prefixed letters l.
- Σ*L∖L = Σ⁺L∖L, so the convex test ("z and xyz accepted imply yz
  accepted": a rejected word with an accepted suffix that is itself a
  suffix of an accepted word) needs no Σ*L.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Optional, Sequence

from .automata import Dfa, _occurring, _walk, determinize

Word = tuple[str, ...]


@dataclass(frozen=True)
class ClassReport:
    """Membership of L(d) in the four classes, with counterexamples.

    counterexamples maps a failed class tag to its witness word, when
    one exists (the empty language fails left-ideal without a witness).
    """

    is_left_ideal: bool
    is_suffix_closed: bool
    is_suffix_free: bool
    is_suffix_convex: bool
    counterexamples: dict[str, Word]


def _first_word(alphabet, dfas: Sequence[Dfa], want: Sequence[bool]) -> Optional[Word]:
    """Length-lex smallest word w with (w in L(dfas[i])) == want[i] for
    every i, or None.

    BFS over tuples of states, one per automaton, scanning letters in
    alphabet order; parent pointers rebuild the word.
    """
    good = [[(q in a.finals) == wanted for q in range(a.n)] for a, wanted in zip(dfas, want)]
    steps = [(letter, [a.delta[letter].image for a in dfas]) for letter in alphabet]
    start = tuple(a.initial for a in dfas)
    if all(map(getitem, good, start)):
        return ()
    parent = {start: None}
    queue = [start]
    for state in queue:  # the list grows while it is read: a FIFO queue
        for letter, images in steps:
            nxt = tuple(map(getitem, images, state))
            if nxt in parent:
                continue
            parent[nxt] = (state, letter)
            if all(map(getitem, good, nxt)):
                word = []
                while (link := parent[nxt]) is not None:
                    nxt, letter = link
                    word.append(letter)
                return tuple(reversed(word))
            queue.append(nxt)
    return None


def suffix_language(d: Dfa) -> Dfa:
    """DFA for the suffixes of words of L(d).

    The subset construction on d's transitions from the set of states
    that are both reachable and co-reachable, all read off one walk over
    the reachable states, in its numbering.
    """
    _, rows, finals, live, _ = _occurring(d)
    steps = [[1 << q for q in row] for row in rows]
    start = sum(1 << q for q, ok in enumerate(live) if ok)
    return determinize(d.alphabet, steps, start, sum(1 << f for f in finals))


def _letter_prefixed(d: Dfa) -> Dfa:
    """DFA for ΣL: a fresh initial state n that every letter takes to d's."""
    rows = [d.delta[letter].image + (d.initial,) for letter in d.alphabet]
    return Dfa._trusted(d.n + 1, d.alphabet, rows, d.n, d.finals)


def _prefixed(d: Dfa) -> Dfa:
    """DFA for Σ⁺L: the subset construction on ΣL with a loop on every
    letter at its initial state n."""
    guess = 1 << d.n
    steps = [
        [1 << q for q in d.delta[letter].image] + [guess | 1 << d.initial] for letter in d.alphabet
    ]
    return determinize(d.alphabet, steps, guess, sum(1 << f for f in d.finals))


def _language(d: Dfa) -> Dfa:
    return d


# each test: (the automata searched, built from d) and the wanted pattern
_TESTS = {
    "left-ideal": ((_letter_prefixed, _language), (True, False)),
    "suffix-closed": ((suffix_language, _language), (True, False)),
    "suffix-free": ((_language, _prefixed), (True, True)),
    "suffix-convex": ((_prefixed, suffix_language, _language), (True, True, False)),
}


def _run(tag: str, d: Dfa, built: dict) -> tuple[bool, Optional[Word]]:
    """The test named tag; built caches the derived automata across tests."""
    builders, want = _TESTS[tag]
    for build in builders:
        if build not in built:
            built[build] = build(d)
    word = _first_word(d.alphabet, tuple(built[build] for build in builders), want)
    return (word is None), word


def is_left_ideal(d: Dfa) -> tuple[bool, Optional[Word]]:
    """Non-empty and closed under prefixing a single letter.

    The counterexample, if any, is the smallest word of the form lw with
    w accepted and lw rejected.
    """
    if not _walk(d.n, [t.image for t in d.delta.values()], d.initial, d.finals)[2]:
        return False, None
    return _run("left-ideal", d, {})


def is_suffix_closed(d: Dfa) -> tuple[bool, Optional[Word]]:
    """Every suffix of every accepted word is accepted.

    The counterexample is the smallest suffix of an accepted word that
    is itself rejected.
    """
    return _run("suffix-closed", d, {})


def is_suffix_free(d: Dfa) -> tuple[bool, Optional[Word]]:
    """No accepted word is a proper suffix of another accepted word.

    The counterexample is the smallest accepted word that also has a
    shorter accepted suffix.
    """
    return _run("suffix-free", d, {})


def is_suffix_convex(d: Dfa) -> tuple[bool, Optional[Word]]:
    """Whenever z and xyz are accepted, so is yz.

    Equivalent automaton-level test: every word that has an accepted
    suffix and is itself a suffix of an accepted word must be accepted.
    """
    return _run("suffix-convex", d, {})


def classify(d: Dfa) -> ClassReport:
    """All four tests, building Σ⁺L and Suff(L) once each."""
    built: dict = {}
    results = {
        tag: is_left_ideal(d) if tag == "left-ideal" else _run(tag, d, built)
        for tag in _TESTS
    }
    return ClassReport(
        is_left_ideal=results["left-ideal"][0],
        is_suffix_closed=results["suffix-closed"][0],
        is_suffix_free=results["suffix-free"][0],
        is_suffix_convex=results["suffix-convex"][0],
        counterexamples={tag: word for tag, (_, word) in results.items() if word is not None},
    )
