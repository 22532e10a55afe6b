"""Total transformations of {0,..,n-1} and their parenthesized notation.

Every witness automaton in this package is generated from a handful of
atom kinds: k-cycles ``(q0,q1,...)``, collapses ``(P->q)``, and the
identity.  Atoms compose left to right: ``compose_many([s, t])``
maps ``q`` to ``t(s(q))``.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, NotationError


@dataclass(frozen=True)
class Transformation:
    """A total self-map of {0,..,n-1}, stored as its image sequence."""

    image: tuple[int, ...]

    def __post_init__(self):
        image = self.image
        n = len(image)
        if image and 0 <= min(image) and max(image) < n:
            return
        for q, r in enumerate(image):
            if not 0 <= r < n:
                raise InputError(f"image[{q}] = {r} outside 0..{n - 1}")

    @classmethod
    def _trusted(cls, image: tuple[int, ...]) -> "Transformation":
        """A Transformation whose entries the caller guarantees lie in
        0..len(image)-1, built without the range check."""
        t = object.__new__(cls)
        object.__setattr__(t, "image", image)
        return t

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, q: int) -> int:
        return self.image[q]

    def then(self, other: "Transformation") -> "Transformation":
        """The composition applying self first, then other."""
        if other.n != self.n:
            raise InputError(f"cannot compose maps of sizes {self.n} and {other.n}")
        return Transformation(tuple(other.image[r] for r in self.image))

    def is_identity(self) -> bool:
        return all(r == q for q, r in enumerate(self.image))

    def __repr__(self):
        return f"Transformation({list(self.image)})"


def identity(n: int) -> Transformation:
    return Transformation(tuple(range(n)))


def cycle(n: int, states: Sequence[int]) -> Transformation:
    """The k-cycle sending states[i] to states[i+1 mod k], identity elsewhere."""
    if len(states) < 2:
        raise InputError("a cycle needs at least two states")
    if len(set(states)) != len(states):
        raise InputError(f"cycle states {list(states)} are not pairwise distinct")
    image = list(range(n))
    for i, q in enumerate(states):
        if not 0 <= q < n:
            raise InputError(f"cycle state {q} outside 0..{n - 1}")
        image[q] = states[(i + 1) % len(states)]
    return Transformation(tuple(image))


def send_to(n: int, sources: Iterable[int], target: int) -> Transformation:
    """The collapse (P->q): every state of P maps to q, identity elsewhere."""
    if not 0 <= target < n:
        raise InputError(f"target {target} outside 0..{n - 1}")
    image = list(range(n))
    for p in sources:
        if not 0 <= p < n:
            raise InputError(f"source {p} outside 0..{n - 1}")
        image[p] = target
    return Transformation(tuple(image))


def compose_many(parts: Sequence[Transformation]) -> Transformation:
    """Left-to-right composition; compose_many([s, t]) maps q to t(s(q))."""
    if not parts:
        raise InputError("compose_many needs at least one transformation")
    result = parts[0]
    for t in parts[1:]:
        result = result.then(t)
    return result


_ATOM_RE = re.compile(r"1|\(([^()]*)\)")
_INT_RE = re.compile(r"-?\d+")


def _parse_int(text: str, n: int, where: str) -> int:
    if not _INT_RE.fullmatch(text):
        raise NotationError(f"expected a state number in {where}, got {text!r}")
    q = int(text)
    if not 0 <= q < n:
        raise NotationError(f"state {q} in {where} outside 0..{n - 1}")
    return q


def _parse_atom(body: str, n: int) -> Transformation:
    where = f"({body})"
    if "->" in body:
        lhs, _, rhs = body.partition("->")
        target = _parse_int(rhs, n, where)
        if lhs == "Q":
            return send_to(n, range(n), target)
        if lhs.startswith("{") and lhs.endswith("}"):
            members = [_parse_int(p, n, where) for p in lhs[1:-1].split(",") if p]
            if not members:
                raise NotationError(f"empty source set in {where}")
            return send_to(n, members, target)
        return send_to(n, [_parse_int(lhs, n, where)], target)
    states = [_parse_int(p, n, where) for p in body.split(",")]
    if len(states) < 2:
        raise NotationError(f"cycle {where} needs at least two states")
    if len(set(states)) != len(states):
        raise NotationError(f"cycle {where} repeats a state")
    return cycle(n, states)


def parse_notation(n: int, text: str) -> Transformation:
    """Parse a concatenation of atoms, applied left to right.

    Accepted atoms: ``(q0,q1,...)``, ``(p->q)``, ``({p1,p2}->q)``,
    ``(Q->q)``, and ``1`` for the identity.  Overlapping atoms are legal
    and compose sequentially.
    """
    text = text.strip()
    if not text:
        raise NotationError("empty transformation text")
    result = identity(n)
    pos = 0
    while pos < len(text):
        m = _ATOM_RE.match(text, pos)
        if m is None:
            raise NotationError(f"malformed notation at {text[pos:]!r}")
        if m.group(0) != "1":
            result = result.then(_parse_atom(m.group(1), n))
        pos = m.end()
    return result


def _cyclic_points(t: Transformation) -> set[int]:
    """States lying on a cycle of the functional graph of t: shrink the
    image set until it stops changing, since t permutes the stable set."""
    points = set(t.image)
    while (image := {t.image[q] for q in points}) != points:
        points = image
    return points


def _format_send(sources: list[int], target: int, n: int) -> str:
    if set(sources) | {target} == set(range(n)):
        return f"(Q->{target})"
    if len(sources) == 1:
        return f"({sources[0]}->{target})"
    inner = ",".join(str(p) for p in sorted(sources))
    return f"({{{inner}}}->{target})"


def format_notation(t: Transformation) -> str:
    """Canonical notation text; parse_notation inverts it exactly.

    Cycle atoms come from the cyclic part of t; the remaining moved
    points are grouped into collapses by target.  Atoms are emitted in
    an order that makes sequential application reproduce t (a collapse
    into r must follow whatever atom moves r), smallest moved point
    first among the unconstrained.
    """
    n = t.n
    if t.is_identity():
        return "1"

    cyclic = _cyclic_points(t)
    atoms: list[tuple[str, frozenset[int], object]] = []
    moved_by: dict[int, int] = {}

    seen: set[int] = set()
    for q in sorted(cyclic):
        if q in seen or t.image[q] == q:
            continue
        cyc = [q]
        r = t.image[q]
        while r != q:
            cyc.append(r)
            r = t.image[r]
        seen.update(cyc)
        idx = len(atoms)
        atoms.append(("cycle", frozenset(cyc), tuple(cyc)))
        for p in cyc:
            moved_by[p] = idx

    by_target: dict[int, list[int]] = {}
    for q in range(n):
        if q not in cyclic and t.image[q] != q:
            by_target.setdefault(t.image[q], []).append(q)
    for target, sources in by_target.items():
        idx = len(atoms)
        atoms.append(("send", frozenset(sources), target))
        for p in sources:
            moved_by[p] = idx

    # topological order: the atom moving a collapse's target goes first
    succs: dict[int, list[int]] = {i: [] for i in range(len(atoms))}
    indeg = [0] * len(atoms)
    for i, (kind, _moved, payload) in enumerate(atoms):
        if kind == "send" and payload in moved_by:
            succs[moved_by[payload]].append(i)
            indeg[i] += 1
    ready = [(min(atoms[i][1]), i) for i in range(len(atoms)) if indeg[i] == 0]
    heapq.heapify(ready)
    ordered: list[int] = []
    while ready:
        _, i = heapq.heappop(ready)
        ordered.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, (min(atoms[j][1]), j))

    parts = []
    for i in ordered:
        kind, _moved, payload = atoms[i]
        if kind == "cycle":
            cyc = list(payload)
            k = cyc.index(min(cyc))
            rotated = cyc[k:] + cyc[:k]
            parts.append("(" + ",".join(str(q) for q in rotated) + ")")
        else:
            sources = sorted(_moved)
            parts.append(_format_send(sources, payload, n))
    return "".join(parts)
