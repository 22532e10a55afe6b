"""Decision procedures for the suffix-convex language classes.

``classify`` decides the four classes at the automaton level and, for
each class that L(d) is not in, returns the length-lexicographically
smallest counterexample word (letters compared in alphabet order).  It
is one breadth-first search, ``_first_words``, over tuples of states of
(Σ⁺L, Suff(L), L), for the first word of each membership pattern (·
for either):

    class          Σ⁺L     Suff(L)  L       fails on a word of
    left ideal     accept  ·        reject  Σ⁺L∖L
    suffix-closed  ·       accept   reject  Suff(L)∖L
    suffix-free    accept  ·        accept  L∩Σ⁺L
    suffix-convex  accept  accept   reject  Σ⁺L∩Suff(L)∖L

A left ideal must also be non-empty: Suff(L) accepts the empty word.
Σ⁺L and Suff(L) are subset constructions on d's transitions, handed to
``automata.determinize`` as bitmask steps, each built once, Suff(L)
from the useful states of one walk (``automata._occurring``).

Three identities make these the counterexamples of the definitions:

- {lw : w ∈ L, lw ∉ L} is exactly ΣL∖L, the left-ideal counterexamples
  over all prefixed letters l.
- ΣL∖L and Σ⁺L∖L have the same least word: let w be the least word of
  Σ⁺L∖L, z its longest proper suffix in L and l the letter before z;
  then lz ∉ L, as z is the longest, and w = lz, since otherwise lz
  would be a shorter word of ΣL∖L ⊆ Σ⁺L∖L.
- Σ*L∖L = Σ⁺L∖L, so the convex test ("z and xyz accepted imply yz
  accepted": a rejected word with an accepted suffix that is itself a
  suffix of an accepted word) needs no Σ*L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, getitem
from typing import Collection, Optional, Sequence

from .automata import Dfa, _occurring, determinize

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


def _first_words(
    alphabet, dfas: Sequence[Dfa], patterns: Collection[Sequence[Optional[bool]]]
) -> list[Optional[Word]]:
    """For each pattern, the length-lex smallest word w with
    (w in L(dfas[i])) == pattern[i] for every i where pattern[i] is not
    None, or None when there is no such word.

    One BFS over tuples of states, one per automaton, scanning letters
    in alphabet order, so tuples are met in the order of their least
    words.  Each state carries the mask of the patterns it agrees with,
    a tuple the AND of its states' masks; the search stops once every
    pattern has its word, and parent pointers rebuild each word.
    """
    masks = []
    for i, a in enumerate(dfas):
        accept = sum(1 << j for j, p in enumerate(patterns) if p[i] is not False)
        reject = sum(1 << j for j, p in enumerate(patterns) if p[i] is not True)
        masks.append([accept if q in a.finals else reject for q in range(a.n)])
    steps = [(letter, [a.delta[letter].image for a in dfas]) for letter in alphabet]
    words: list[Optional[Word]] = [None] * len(patterns)
    todo = (1 << len(patterns)) - 1  # the patterns still without a word
    start = tuple(a.initial for a in dfas)
    parent = {start: None}
    queue = [start]
    for state in queue:  # the list grows while it is read: a FIFO queue
        if found := reduce(and_, map(getitem, masks, state), todo):
            word, node = [], state
            while (link := parent[node]) is not None:
                node, letter = link
                word.append(letter)
            for j in range(len(patterns)):
                if found >> j & 1:
                    words[j] = tuple(reversed(word))
            if not (todo := todo ^ found):
                break
        for letter, images in steps:
            nxt = tuple(map(getitem, images, state))
            if nxt not in parent:
                parent[nxt] = (state, letter)
                queue.append(nxt)
    return words


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


def _prefixed(d: Dfa) -> Dfa:
    """DFA for Σ⁺L: the subset construction on ΣL with a loop on every
    letter at its initial state n."""
    guess = 1 << d.n
    steps = [
        [1 << q for q in d.delta[letter].image] + [guess | 1 << d.initial] for letter in d.alphabet
    ]
    return determinize(d.alphabet, steps, guess, sum(1 << f for f in d.finals))


# each class: the membership a counterexample has in (Σ⁺L, Suff(L), L)
_PATTERNS = {
    "left-ideal": (True, None, False),
    "suffix-closed": (None, True, False),
    "suffix-free": (True, None, True),
    "suffix-convex": (True, True, False),
}


def classify(d: Dfa) -> ClassReport:
    """All four tests in one search over (Σ⁺L, Suff(L), L)."""
    suff = suffix_language(d)
    words = _first_words(d.alphabet, (_prefixed(d), suff, d), _PATTERNS.values())
    found = {tag: word for tag, word in zip(_PATTERNS, words) if word is not None}
    return ClassReport(
        is_left_ideal=suff.initial in suff.finals and "left-ideal" not in found,
        is_suffix_closed="suffix-closed" not in found,
        is_suffix_free="suffix-free" not in found,
        is_suffix_convex="suffix-convex" not in found,
        counterexamples=found,
    )
