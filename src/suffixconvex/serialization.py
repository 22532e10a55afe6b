"""DFA documents (JSON) and DOT export."""

from __future__ import annotations

import json

from .automata import Dfa
from .errors import DocumentError, NotationError
from .transformations import Transformation, format_notation, parse_notation


def write_dfa(d: Dfa, name: str = "dfa") -> str:
    """Serialize a DFA as a JSON document, including the transformation
    notation of each letter."""
    doc = {
        "name": name,
        "states": d.n,
        "alphabet": list(d.alphabet),
        "transitions": {letter: list(d.delta[letter].image) for letter in d.alphabet},
        "initial": d.initial,
        "finals": sorted(d.finals),
        "notation": {letter: format_notation(d.delta[letter]) for letter in d.alphabet},
    }
    return json.dumps(doc, indent=2) + "\n"


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise DocumentError(f"{where}: {message}")


def _is_int(value) -> bool:
    """A JSON integer; true and false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, rejecting a key that appears twice."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            _require(key not in seen, "document", f"repeated key {key!r}")
            seen.add(key)
    return doc


def read_dfa(text: str) -> Dfa:
    """Parse and validate a DFA document; inverse of write_dfa."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # the decoder recurses once per level of nesting, in any field
        raise DocumentError("document: nested too deeply to decode") from exc
    _require(isinstance(doc, dict), "document", "top level must be an object")

    for key in ("states", "alphabet", "transitions", "initial", "finals"):
        _require(key in doc, "document", f"missing field {key!r}")

    n = doc["states"]
    _require(_is_int(n) and n >= 1, "states", "must be a positive integer")

    alphabet = doc["alphabet"]
    _require(
        isinstance(alphabet, list)
        and all(isinstance(l, str) and l and not l.isspace() for l in alphabet),
        "alphabet",
        "must be a list of non-empty letter tokens",
    )
    _require(len(set(alphabet)) == len(alphabet), "alphabet", "letters must be unique")

    transitions = doc["transitions"]
    _require(isinstance(transitions, dict), "transitions", "must be an object")
    _require(
        set(transitions) == set(alphabet),
        "transitions",
        f"keys {sorted(transitions)} must match the alphabet {sorted(alphabet)}",
    )
    delta = {}
    for letter in alphabet:
        row = transitions[letter]
        where = f"transitions[{letter!r}]"
        _require(isinstance(row, list), where, "must be a list")
        _require(len(row) == n, where, f"has length {len(row)}, expected {n}")
        for q, target in enumerate(row):
            # the message is built only for a bad entry
            if not (_is_int(target) and 0 <= target < n):
                _require(False, f"{where}[{q}]", f"state {target!r} outside 0..{n - 1}")
        delta[letter] = Transformation(tuple(row))

    initial = doc["initial"]
    _require(
        _is_int(initial) and 0 <= initial < n,
        "initial",
        f"state {initial!r} outside 0..{n - 1}",
    )

    finals = doc["finals"]
    _require(
        isinstance(finals, list) and all(_is_int(q) and 0 <= q < n for q in finals),
        "finals",
        f"must be a list of states in 0..{n - 1}",
    )
    _require(len(set(finals)) == len(finals), "finals", "states must be unique")

    notation = doc.get("notation")
    if notation is not None:
        _require(isinstance(notation, dict), "notation", "must be an object")
        for letter, text_form in notation.items():
            where = f"notation[{letter!r}]"
            _require(letter in delta, where, "letter not in the alphabet")
            _require(isinstance(text_form, str), where, "must be a string")
            try:
                expanded = parse_notation(n, text_form)
            except NotationError as exc:
                raise DocumentError(f"{where}: {exc}") from exc
            _require(
                expanded == delta[letter],
                where,
                f"expands to {list(expanded.image)}, transitions say {list(delta[letter].image)}",
            )

    return Dfa(n, tuple(alphabet), delta, initial, frozenset(finals))


def export_dot(d: Dfa) -> str:
    """Render the DFA as a deterministic GraphViz digraph."""
    lines = [
        "digraph dfa {",
        "  rankdir=LR;",
        "  node [shape=circle];",
        '  __start [shape=point, label=""];',
    ]
    for q in range(d.n):
        if q in d.finals:
            lines.append(f"  {q} [shape=doublecircle];")
    lines.append(f"  __start -> {d.initial};")
    for p in range(d.n):
        targets: dict[int, list[str]] = {}
        for letter in d.alphabet:
            targets.setdefault(d.delta[letter](p), []).append(letter)
        for q in sorted(targets):
            # a backslash or quote in a letter would end or alter the quoted label
            label = ",".join(targets[q]).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {p} -> {q} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
