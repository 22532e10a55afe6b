"""Complete DFAs and the algorithms on them.

All automata live on the dense state set {0,..,n-1}.  DFAs are complete
by construction: every letter of the alphabet carries a total
transformation of the state set.  Operations that renumber states
(determinize, minimize) always use breadth-first discovery order from
the initial state, scanning letters in alphabet order, so results are
reproducible bit for bit.

The kernels (reachability, subset construction, minimization) work on
plain ints: they index the ``image`` tuples of the transformations
directly and hold subsets as int bitmasks.  ``_walk`` is the one walk
that numbers the states reachable from a start, and ``_subsets`` is the
one subset construction: its callers (reversal, star, concatenation,
Suff(L), Σ⁺L, atoms) hand it the nondeterministic moves as bitmask
steps, one mask per (letter, state), with any epsilon moves already
folded in.  ``_hopcroft`` returns a refinement as the number of classes
and the class of each state; ``_class_rows`` turns that into the
quotient's rows, which ``minimize`` numbers with ``_walk``.
``_components`` is the one strongly-connected-component pass: the
semigroup count splits its orbit of image sets with it, and
``_reach_counts`` counts on it the states reachable from every state at
once, for the quotient and atom complexities.  A kernel whose rows are
valid by construction (determinize, minimize, the direct
product, the atom automaton) builds its result with ``Dfa._trusted``,
which skips the checks of ``Dfa.__post_init__``; every other ``Dfa`` is
validated.  A query that needs only a size (``complexity`` here, the
quotient and atom complexities in ``measures``) counts states or
refinement classes and builds no minimal ``Dfa`` for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError
from .transformations import Transformation


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton with named letters."""

    n: int
    alphabet: tuple[str, ...]
    delta: dict[str, Transformation]
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "finals", frozenset(self.finals))
        delta = {
            letter: t if isinstance(t, Transformation) else Transformation(tuple(t))
            for letter, t in self.delta.items()
        }
        object.__setattr__(self, "delta", delta)
        if self.n < 1:
            raise InputError("a DFA needs at least one state")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InputError("alphabet letters must be unique")
        if set(delta) != set(self.alphabet):
            raise InputError("delta must define exactly the alphabet letters")
        for letter, t in delta.items():
            if t.n != self.n:
                raise InputError(f"transformation of {letter!r} has size {t.n}, expected {self.n}")
        if not 0 <= self.initial < self.n:
            raise InputError(f"initial state {self.initial} outside 0..{self.n - 1}")
        if not self.finals <= frozenset(range(self.n)):
            raise InputError("final states outside the state set")

    @classmethod
    def _trusted(
        cls, n: int, alphabet: tuple[str, ...], rows: Sequence[Sequence[int]], initial: int,
        finals: frozenset[int],
    ) -> "Dfa":
        """A Dfa from a kernel's rows (one image sequence per letter), built
        without the checks of __post_init__: the caller guarantees distinct
        letters, n >= 1, every row of length n with entries in range, and
        initial and finals inside the state set."""
        # object.__setattr__ rather than writing __dict__, which would turn
        # the instance's inline attribute storage into a slower real dict
        d = object.__new__(cls)
        put = object.__setattr__
        put(d, "n", n)
        put(d, "alphabet", alphabet)
        put(d, "delta", {
            letter: Transformation._trusted(tuple(row)) for letter, row in zip(alphabet, rows)
        })
        put(d, "initial", initial)
        put(d, "finals", finals)
        return d

    def step(self, q: int, letter: str) -> int:
        try:
            t = self.delta[letter]
        except KeyError:
            raise InputError(f"letter {letter!r} not in alphabet {list(self.alphabet)}") from None
        return t(q)


def apply_word(d: Dfa, q: int, word: Iterable[str]) -> int:
    """The state reached from q by reading word left to right."""
    for letter in word:
        q = d.step(q, letter)
    return q


def accepts(d: Dfa, word: Iterable[str]) -> bool:
    return apply_word(d, d.initial, word) in d.finals


def reachable_states(d: Dfa) -> list[int]:
    """States reachable from the initial state, in BFS discovery order."""
    return _walk(d.n, [d.delta[letter].image for letter in d.alphabet], d.initial, ())[0]


def _coreachable(n: int, rows: Sequence[Sequence[int]], finals: Iterable[int]) -> list[bool]:
    """live[q]: some final state can be reached from q (rows holds one
    image sequence per letter)."""
    pre: list[list[int]] = [[] for _ in range(n)]
    for row in rows:
        for p, q in enumerate(row):
            pre[q].append(p)
    live = [False] * n
    stack = list(finals)
    for q in stack:
        live[q] = True
    while stack:
        for p in pre[stack.pop()]:
            if not live[p]:
                live[p] = True
                stack.append(p)
    return live


def coreachable_states(d: Dfa) -> frozenset[int]:
    """States from which some final state can be reached."""
    live = _coreachable(d.n, [t.image for t in d.delta.values()], d.finals)
    return frozenset(q for q in range(d.n) if live[q])


def _subsets(steps: Sequence[Sequence[int]], start: int) -> tuple[list[int], list[list[int]]]:
    """Subset construction on bitmask steps.

    Subsets are int bitmasks, bit p standing for state p, and steps[c][p]
    is the mask of the states letter c takes p to; a subset's successor is
    the union of its members' steps.  Returns (order, rows): order lists
    the subsets reachable from start in BFS discovery order, letters
    scanned in the order of steps, and rows[c][i] is the number of the
    subset letter c takes order[i] to.  The empty subset, when reachable,
    is an ordinary subset.
    """
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in steps]
    for subset in order:  # the list grows while it is read: a FIFO queue
        members = []
        rest = subset
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        for step, row in zip(steps, rows):
            target = 0
            for p in members:
                target |= step[p]
            j = index.get(target)
            if j is None:
                j = index[target] = len(order)
                order.append(target)
            row.append(j)
    return order, rows


def _preimages(d: Dfa) -> list[list[int]]:
    """Bitmask steps of the reversed transitions: pre[c][q] is the mask of
    the states p that letter c takes to q."""
    steps = []
    for letter in d.alphabet:
        pre = [0] * d.n
        for p, q in enumerate(d.delta[letter].image):
            pre[q] |= 1 << p
        steps.append(pre)
    return steps


def determinize(
    alphabet: tuple[str, ...], steps: Sequence[Sequence[int]], start: int, accepting: int
) -> Dfa:
    """The DFA of the subsets reachable from start (a bitmask) under the
    bitmask steps, one row of steps per letter of alphabet, as ``_subsets``
    numbers them; a subset is final when it meets the accepting mask, and
    the empty subset, when reachable, becomes a sink.  A caller with
    epsilon moves folds each state's closure into the steps and start.
    """
    order, rows = _subsets(steps, start)
    finals = frozenset(i for i, subset in enumerate(order) if subset & accepting)
    return Dfa._trusted(len(order), alphabet, rows, 0, finals)


def _hopcroft(
    n: int, rows: Sequence[Sequence[int]], finals: Iterable[int]
) -> tuple[int, list[int]]:
    """Partition {0,..,n-1} (n >= 1) into classes of equivalent states.

    rows holds one image sequence per letter: rows[c][p] is the state
    letter c takes p to.  Returns (count, block_of): the classes are
    0..count-1, in no particular order, and block_of[q] is the class of q.

    Hopcroft's algorithm ("An n log n algorithm for minimizing states in a
    finite automaton", 1971) on the refinable partition of Valmari and
    Lehtinen ("Efficient minimization of DFAs with partial transition
    functions", STACS 2008).  Starting from finals / non-finals, a worklist
    of (block, letter) splitters is drained: the preimage of a splitter's
    block under its letter is grouped by the block each state sits in, and
    only those blocks are split, at a cost of the states moved.  A split
    block queues its smaller half for every letter, or both halves for a
    letter it was already queued for.  Each state therefore lies in
    O(log n) processed splitters per letter, and with k letters the whole
    refinement takes O(k·n log n) time.
    """
    # block 0 holds the finals, block 1 the rest
    block_of = [1] * n
    for q in finals:
        block_of[q] = 0
    elems = [q for q in range(n) if not block_of[q]]
    cut = len(elems)
    if cut in (0, n):
        return 1, [0] * n
    elems += [q for q in range(n) if block_of[q]]

    pre: list[list[list[int]]] = []
    for image in rows:
        table: list[list[int]] = [[] for _ in range(n)]
        for p, q in enumerate(image):
            table[q].append(p)
        pre.append(table)

    # Block b holds elems[first[b]:end[b]]; while a splitter is processed,
    # the block's states in the preimage are gathered in elems[first[b]:mid[b]].
    loc = [0] * n
    for i, q in enumerate(elems):
        loc[q] = i
    first, end, mid = [0, cut], [cut, n], [0, cut]

    # splitter (block b, letter c) is coded b * k + c
    k = len(pre)
    smaller = 0 if cut <= n - cut else 1
    waiting = [smaller * k + c for c in range(k)]
    queued = [False] * (2 * k)
    for code in waiting:
        queued[code] = True

    while waiting:
        code = waiting.pop()
        queued[code] = False
        b, c = divmod(code, k)
        table = pre[c]
        touched = []
        for q in elems[first[b]:end[b]]:
            for p in table[q]:
                y = block_of[p]
                j = mid[y]
                if j == first[y]:
                    touched.append(y)
                i = loc[p]
                other = elems[j]
                elems[j], elems[i] = p, other
                loc[p], loc[other] = j, i
                mid[y] = j + 1
        for y in touched:
            f, m, e = first[y], mid[y], end[y]
            mid[y] = f
            if m == e:
                continue
            # the gathered states become a new block; y keeps the rest
            new = len(first)
            first.append(f)
            end.append(m)
            mid.append(f)
            first[y] = mid[y] = m
            for i in range(f, m):
                block_of[elems[i]] = new
            queued.extend([False] * k)
            half = new if m - f <= e - m else y
            for a in range(k):
                code = (new if queued[y * k + a] else half) * k + a
                queued[code] = True
                waiting.append(code)
    return len(first), block_of


def _walk(
    n: int, images: Sequence[Sequence[int]], initial: int, finals: Iterable[int]
) -> tuple[list[int], list[list[int]], frozenset[int]]:
    """Number the states reachable from initial by BFS discovery order,
    letters scanned in the order of images.

    Returns (order, rows, reached finals): order[i] is the i-th state
    found, rows[c][i] is the number of the state letter c takes order[i]
    to, and the reached finals are the numbers of the reachable finals.
    """
    number = [-1] * n
    number[initial] = 0
    order = [initial]
    rows: list[list[int]] = [[] for _ in images]
    for p in order:  # the list grows while it is read: a FIFO queue
        for image, row in zip(images, rows):
            q = image[p]
            i = number[q]
            if i < 0:
                i = number[q] = len(order)
                order.append(q)
            row.append(i)
    return order, rows, frozenset(number[q] for q in finals if number[q] >= 0)


def _components(n: int, rows: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Strongly connected components of the graph on {0,..,n-1} whose
    edges are p -> rows[c][p].

    Returns (count, comp): comp[q] is the component of q, numbered sinks
    first, so every edge leads to a component with the same or a smaller
    number.  Tarjan's algorithm ("Depth-first search and linear graph
    algorithms", 1972), iterative, so deep graphs do not hit the
    recursion limit.
    """
    succ = list(zip(*rows)) if rows else [()] * n  # succ[p]: p's targets, letter by letter
    index = [0] * n  # discovery number from 1; 0 while unvisited
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    count = 0
    counter = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        path = [(root, iter(succ[root]))]  # the DFS path, each with its unread edges
        while path:
            p, edges = path[-1]
            for q in edges:
                if not index[q]:
                    counter += 1
                    index[q] = low[q] = counter
                    stack.append(q)
                    path.append((q, iter(succ[q])))
                    break
                if comp[q] < 0 and index[q] < low[p]:  # q is still on the stack
                    low[p] = index[q]
            else:
                path.pop()
                if path and low[p] < low[path[-1][0]]:
                    low[path[-1][0]] = low[p]
                if low[p] == index[p]:
                    while True:
                        q = stack.pop()
                        comp[q] = count
                        if q == p:
                            break
                    count += 1
    return count, comp


def _reach_counts(n: int, rows: Sequence[Sequence[int]]) -> list[int]:
    """The number of states reachable from each state of {0,..,n-1} (itself
    included) along p -> rows[c][p].

    One pass over the components, sinks first: a component's reach mask is
    its members OR'd with the masks of the components it has edges into,
    all of which are complete by then.
    """
    count, comp = _components(n, rows)
    reach = [0] * count
    for q in range(n):
        reach[comp[q]] |= 1 << q
    for q in sorted(range(n), key=comp.__getitem__):
        x = comp[q]
        mask = reach[x]
        for row in rows:
            mask |= reach[comp[row[q]]]
        reach[x] = mask
    return [reach[x].bit_count() for x in comp]


def _class_rows(
    rows: Sequence[Sequence[int]], count: int, block_of: Sequence[int]
) -> list[list[int]]:
    """The rows of the quotient by the classes ``_hopcroft`` returns: the
    class letter c takes class x to.  Equivalent states move into one
    class, so any member stands for its class."""
    member = [0] * count
    for q, x in enumerate(block_of):
        member[x] = q
    return [[block_of[row[q]] for q in member] for row in rows]


def minimize(d: Dfa) -> Dfa:
    """The minimal complete DFA of L(d), canonically renumbered.

    Unreachable states are dropped, equivalent states merged, and the
    classes numbered by BFS discovery order from the initial class with
    letters scanned in alphabet order; the result is idempotent under
    repeated minimization.
    """
    # one walk numbers the reachable states and reads their rows, a second
    # numbers the classes, every one reachable from the initial state's
    images = [d.delta[letter].image for letter in d.alphabet]
    order, rows, finals = _walk(d.n, images, d.initial, d.finals)
    count, block_of = _hopcroft(len(order), rows, finals)
    class_finals = {block_of[q] for q in finals}
    _, out, out_finals = _walk(count, _class_rows(rows, count, block_of), block_of[0], class_finals)
    return Dfa._trusted(count, d.alphabet, out, 0, out_finals)


def complete_over(d: Dfa, sigma: Sequence[str]) -> Dfa:
    """Extend d to the alphabet sigma, sending new letters to a fresh sink.

    If sigma equals d's alphabet the automaton is returned unchanged; a
    permutation of the same letters only reorders the alphabet.
    """
    sigma = tuple(sigma)
    if len(set(sigma)) != len(sigma):
        raise InputError("sigma letters must be unique")
    missing = set(d.alphabet) - set(sigma)
    if missing:
        raise InputError(f"sigma is missing letters {sorted(missing)} of the automaton")
    if sigma == d.alphabet:
        return d
    if set(sigma) == set(d.alphabet):
        return Dfa(d.n, sigma, dict(d.delta), d.initial, d.finals)
    sink = d.n
    delta = {}
    for letter in sigma:
        if letter in d.delta:
            delta[letter] = Transformation(d.delta[letter].image + (sink,))
        else:
            delta[letter] = Transformation((sink,) * (d.n + 1))
    return Dfa(d.n + 1, sigma, delta, d.initial, d.finals)


def union_alphabet(d1: Dfa, d2: Dfa) -> tuple[str, ...]:
    """d1's letters in order, then d2's letters not already present."""
    return d1.alphabet + tuple(l for l in d2.alphabet if l not in d1.alphabet)


def _occurring(d: Dfa) -> tuple[int, list[list[int]], frozenset[int], list[bool]]:
    """One walk over the reachable states, (n, rows, finals) as ``_walk``
    numbers them, and per letter whether it occurs in an accepted word:
    whether it takes some reachable state into a co-reachable one."""
    images = [d.delta[letter].image for letter in d.alphabet]
    order, rows, finals = _walk(d.n, images, d.initial, d.finals)
    n = len(order)
    live = _coreachable(n, rows, finals)
    return n, rows, finals, [any(live[q] for q in row) for row in rows]


def occurring_letters(d: Dfa) -> frozenset[str]:
    """Letters appearing in at least one accepted word."""
    occurs = _occurring(d)[3]
    return frozenset(letter for letter, ok in zip(d.alphabet, occurs) if ok)


def complexity(d: Dfa) -> int:
    """Quotient complexity of L(d): minimal DFA size over the occurring letters.

    Letters that occur in no accepted word are dropped before counting,
    so L = a* over {a, b} has complexity 1: its sink is unreachable once
    b is gone.  ``measures.syntactic_semigroup_size`` keeps the full
    alphabet instead (2 for the same language).
    """
    n, rows, finals, occurs = _occurring(d)
    if not all(occurs):
        # a dropped letter may have been the only way into some states
        order, rows, finals = _walk(n, [r for r, ok in zip(rows, occurs) if ok], 0, finals)
        n = len(order)
    return _hopcroft(n, rows, finals)[0]
