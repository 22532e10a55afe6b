"""Decision procedures for the suffix-convex language classes.

``classify`` decides the four classes at the automaton level and, for
each class that L(d) is not in, returns the length-lexicographically
smallest counterexample word (letters compared in alphabet order).  It
is one breadth-first search, ``_first_words``, over triples of states of
(Σ⁺L, Suff(L), L), for the first word of each membership pattern (·
for either):

    class          Σ⁺L     Suff(L)  L       fails on a word of
    left ideal     accept  ·        reject  Σ⁺L∖L
    suffix-closed  ·       accept   reject  Suff(L)∖L
    suffix-free    accept  ·        accept  L∩Σ⁺L
    suffix-convex  accept  accept   reject  Σ⁺L∩Suff(L)∖L

A left ideal must also be non-empty: Suff(L) accepts the empty word.
Σ⁺L and Suff(L) are subset constructions on d's transitions, given as
bitmask steps, Suff(L)'s from the useful states of one walk
(``automata._occurring``).  No DFA is built for either: the search
finds a subset's successors the first time a triple holds it, so each
construction goes only as far as the search, which stops once every
class has its word.  A language in no class often has all four words
among the first few triples, while a full Σ⁺L or Suff(L) can have about
2^n states.  ``suffix_language`` determinizes the same Suff(L) steps.

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
from typing import Optional

from .automata import Dfa, _occurring, _subset_union, determinize

Word = tuple[str, ...]
# a subset construction: (bitmask steps, start, accepting), as determinize takes them
_Subsets = tuple[list[list[int]], int, int]


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


def _suffix_steps(d: Dfa) -> _Subsets:
    """Suff(L) as a subset construction on d's transitions: (bitmask steps,
    start, accepting) from the set of states that are both reachable and
    co-reachable, all read off one walk over the reachable states, in its
    numbering.  The start meets the accepting mask exactly when L is
    non-empty."""
    _, rows, finals, live, _ = _occurring(d)
    steps = [[1 << q for q in row] for row in rows]
    start = sum(1 << q for q, ok in enumerate(live) if ok)
    return steps, start, sum(1 << f for f in finals)


def suffix_language(d: Dfa) -> Dfa:
    """DFA for the suffixes of words of L(d): the subset construction of
    ``_suffix_steps``."""
    return determinize(d.alphabet, *_suffix_steps(d))


def _prefixed_steps(d: Dfa) -> _Subsets:
    """Σ⁺L as a subset construction: (bitmask steps, start, accepting) of
    ΣL, a fresh initial state n that every letter takes to d's initial
    state, with a loop on every letter at n."""
    guess = 1 << d.n
    steps = [
        [1 << q for q in d.delta[letter].image] + [guess | 1 << d.initial] for letter in d.alphabet
    ]
    return steps, guess, sum(1 << f for f in d.finals)


# each class: the membership a counterexample has in (Σ⁺L, Suff(L), L)
_PATTERNS = {
    "left-ideal": (True, None, False),
    "suffix-closed": (None, True, False),
    "suffix-free": (True, None, True),
    "suffix-convex": (True, True, False),
}
# per automaton of (Σ⁺L, Suff(L), L): the patterns an accepting state and a
# rejecting state agree with, as masks, bit j standing for pattern j
_MASKS = [
    (
        sum(1 << j for j, p in enumerate(_PATTERNS.values()) if p[i] is not False),
        sum(1 << j for j, p in enumerate(_PATTERNS.values()) if p[i] is not True),
    )
    for i in range(3)
]


def _first_words(d: Dfa, prefixed: _Subsets, suffixes: _Subsets) -> list[Optional[Word]]:
    """For each pattern of ``_PATTERNS``, the length-lex smallest word w
    whose membership in (Σ⁺L, Suff(L), L) agrees with it, or None when
    there is no such word; prefixed and suffixes are the subset
    constructions of Σ⁺L and Suff(L) as (bitmask steps, start, accepting).

    One BFS over triples (P, S, q): P a subset of Σ⁺L's construction, S
    one of Suff(L)'s and q a state of d, scanning letters in alphabet
    order, so triples are met in the order of their least words.  A
    subset's successors under every letter are cut out of its union of
    steps (``automata._subset_union``) the first time it is met and kept
    for the next triple that holds it, so each construction goes only as
    far as the search.  A triple agrees
    with the AND of its parts' pattern masks; the search stops once every
    pattern has its word, and parent pointers rebuild each word.
    """
    images = [d.delta[letter].image for letter in d.alphabet]
    (accept_p, reject_p), (accept_s, reject_s), (accept_l, reject_l) = _MASKS
    union_p, shifts_p, mask_p = _subset_union(prefixed[0], prefixed[1])
    union_s, shifts_s, mask_s = _subset_union(suffixes[0], suffixes[1])
    final_p, final_s = prefixed[2], suffixes[2]
    after_p: dict[int, list[int]] = {}  # subset -> its successors, letter by letter
    after_s: dict[int, list[int]] = {}
    finals = d.finals
    words: list[Optional[Word]] = [None] * len(_PATTERNS)
    todo = (1 << len(_PATTERNS)) - 1  # the patterns still without a word
    start = (prefixed[1], suffixes[1], d.initial)
    parent = {start: None}
    queue = [start]
    for state in queue:  # the list grows while it is read: a FIFO queue
        p, s, q = state
        found = (
            todo & (accept_l if q in finals else reject_l)
            & (accept_p if p & final_p else reject_p)
            & (accept_s if s & final_s else reject_s)
        )
        if found:
            word, node = [], state
            while (link := parent[node]) is not None:
                node, letter = link
                word.append(letter)
            for j in range(len(_PATTERNS)):
                if found >> j & 1:
                    words[j] = tuple(reversed(word))
            if not (todo := todo ^ found):
                break
        next_p = after_p.get(p)
        if next_p is None:
            union = union_p(p)
            next_p = after_p[p] = [union >> shift & mask_p for shift in shifts_p]
        next_s = after_s.get(s)
        if next_s is None:
            union = union_s(s)
            next_s = after_s[s] = [union >> shift & mask_s for shift in shifts_s]
        for letter, p2, s2, image in zip(d.alphabet, next_p, next_s, images):
            nxt = (p2, s2, image[q])
            if nxt not in parent:
                parent[nxt] = (state, letter)
                queue.append(nxt)
    return words


def classify(d: Dfa) -> ClassReport:
    """All four tests in one search over (Σ⁺L, Suff(L), L)."""
    suffixes = _suffix_steps(d)
    words = _first_words(d, _prefixed_steps(d), suffixes)
    found = {tag: word for tag, word in zip(_PATTERNS, words) if word is not None}
    _, start, accepting = suffixes
    return ClassReport(
        is_left_ideal=bool(start & accepting) and "left-ideal" not in found,
        is_suffix_closed="suffix-closed" not in found,
        is_suffix_free="suffix-free" not in found,
        is_suffix_convex="suffix-convex" not in found,
        counterexamples=found,
    )
