"""Spans around the package's public functions, recorded from outside it.

A ``Tracer`` replaces each traced function in every ``suffixconvex``
module namespace that holds it (the defining module, every module that
imported it, and the package itself) with a wrapper that records a span,
and puts the originals back on exit.  Library code looks its helpers up
as module globals at call time, so nested calls are traced too and each
span knows the span that caused it.

Spans stay in memory and are written once, at the end of the pass.  The
speed samples that calibration.py takes during a pass are recorded as
SAMPLE spans, so they count in no layer's self time.

``layer_metrics`` turns one pass's spans into the per-layer metrics, so
the numbers can be recomputed from a written span file:

    python3 perfbench/tracing.py .perfbench/spans-*.json
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

PACKAGE = "suffixconvex"

# (module, function) -> span name; two functions may share one span name
TRACED = {
    ("automata", "minimize"): "automata.minimize",
    ("automata", "determinize"): "automata.determinize",
    ("automata", "complexity"): "automata.complexity",
    ("operations", "boolean_restricted"): "operations.boolean",
    ("operations", "boolean_unrestricted"): "operations.boolean",
    ("operations", "concat"): "operations.concat",
    ("operations", "star"): "operations.star",
    ("operations", "reverse"): "operations.reverse",
    ("measures", "transition_semigroup"): "measures.semigroup",
    ("measures", "atoms"): "measures.atoms",
    ("measures", "atom_complexity"): "measures.atom_complexity",
    ("measures", "atom_automaton"): "measures.atom_automaton",
    ("measures", "quotient_complexities"): "measures.quotient_complexities",
    ("classifiers", "classify"): "classifiers.classify",
    ("serialization", "read_dfa"): "serialization.read_dfa",
    ("serialization", "write_dfa"): "serialization.write_dfa",
    ("witnesses", "make_witness"): "witnesses.make_witness",
    ("witnesses", "make_dialect"): "witnesses.make_dialect",
    ("verify", "run_verification"): "verify.run_verification",
}

MODULES = ("automata", "operations", "measures", "classifiers", "serialization", "witnesses", "verify")


def _states_in_out(args, kwargs, result):
    return {"states_in": args[0].n, "states_out": result.n}


def _states_out(args, kwargs, result):
    return {"states_out": result.n}


# span name -> what to count from a call's arguments and result
COUNTERS = {
    "automata.minimize": _states_in_out,
    "automata.determinize": _states_out,
    "operations.boolean": _states_out,
    "measures.atom_automaton": _states_out,
    "measures.semigroup": lambda a, k, r: {"elements": r.size, "truncated": int(r.truncated)},
    "measures.atoms": lambda a, k, r: {"atoms": len(r)},
    "serialization.read_dfa": lambda a, k, r: {"bytes": len(a[0])},
    "serialization.write_dfa": lambda a, k, r: {"bytes": len(r)},
    "verify.run_verification": lambda a, k, r: {"rows": len(r.entries)},
}

# one span: [name, start, end, parent index or None, pass id, counts, error type];
# while tracing, the parent field holds the parent span itself
NAME, START, END, PARENT, PASS, COUNTS, ERROR = range(7)
# a speed sample taken inside the pass; no layer metric counts it, and it
# is not part of the self time of the span it interrupted
SAMPLE = "perfbench.sample"


class Tracer:
    """Context manager that traces the functions in TRACED for one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._raised: list[BaseException] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for (module_name, function_name), span_name in TRACED.items():
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], function_name)
            wrapper = self._wrap(original, span_name, COUNTERS.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False

    def record_sample(self, start: float, end: float) -> None:
        """Record a speed sample as a child of the span it interrupted."""
        stack = self._stack
        self.spans.append([SAMPLE, start, end, stack[-1] if stack else None, self.pass_id, None, None])

    def indexed_spans(self) -> list[list]:
        """The spans with each parent given by its index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [span[:PARENT] + [None if span[PARENT] is None else index[id(span[PARENT])]] + span[PARENT + 1:]
                for span in self.spans]

    def _wrap(self, function, span_name, counter):
        spans, stack, raised, pass_id = self.spans, self._stack, self._raised, self.pass_id
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            # the stack holds spans, not indices: a speed sample may be
            # appended between any two of these statements
            span = [span_name, clock(), None, stack[-1] if stack else None, pass_id, None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                # count an error once, in the innermost span it left
                if not any(exc is seen for seen in raised):
                    raised.append(exc)
                    span[ERROR] = type(exc).__name__
                raise
            span[END] = clock()
            stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return traced

    def write(self, path: str, **meta) -> None:
        doc = dict(meta, pass_id=self.pass_id, spans=self.indexed_spans(),
                   fields=["name", "start", "end", "parent", "pass", "counts", "error"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append((end - start) - covered)
    return result


def _per_call(total: float, count: float, scale: float = 1.0) -> float:
    return total * scale / count if count else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass, from its spans."""
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    counts: dict[str, float] = {}
    errors = {module: 0 for module in MODULES}
    for span, self_s in zip(spans, self_times(spans)):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s
        for key, value in (span[COUNTS] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if span[ERROR] is not None:
            errors[name.split(".")[0]] += 1

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return own.get(name, 0.0)

    def n(key):
        return counts.get(key, 0)

    m = {
        "automata.minimize.calls": c("automata.minimize"),
        "automata.minimize.self_s": s("automata.minimize"),
        "automata.minimize.states_in": n("automata.minimize.states_in"),
        "automata.minimize.states_out": n("automata.minimize.states_out"),
        "automata.minimize.kept_ratio": _per_call(n("automata.minimize.states_out"), n("automata.minimize.states_in")),
        "automata.determinize.calls": c("automata.determinize"),
        "automata.determinize.self_s": s("automata.determinize"),
        "automata.determinize.states_out": n("automata.determinize.states_out"),
        "automata.complexity.calls": c("automata.complexity"),
        "operations.boolean.calls": c("operations.boolean"),
        "operations.boolean.self_s": s("operations.boolean"),
        "operations.boolean.states_out": n("operations.boolean.states_out"),
        "operations.concat.self_s": s("operations.concat"),
        "operations.star.self_s": s("operations.star"),
        "operations.reverse.self_s": s("operations.reverse"),
        "measures.semigroup.calls": c("measures.semigroup"),
        "measures.semigroup.self_s": s("measures.semigroup"),
        "measures.semigroup.elements": n("measures.semigroup.elements"),
        "measures.semigroup.us_per_element": _per_call(s("measures.semigroup"), n("measures.semigroup.elements"), 1e6),
        "measures.semigroup.truncated": n("measures.semigroup.truncated"),
        "measures.atoms.calls": c("measures.atoms"),
        "measures.atoms.self_s": s("measures.atoms"),
        "measures.atoms.atoms": n("measures.atoms.atoms"),
        "measures.atoms.us_per_atom": _per_call(s("measures.atoms"), n("measures.atoms.atoms"), 1e6),
        "measures.atom_complexity.calls": c("measures.atom_complexity"),
        "measures.atom_complexity.self_s": s("measures.atom_complexity"),
        "measures.atom_automaton.states_out": n("measures.atom_automaton.states_out"),
        "measures.quotient_complexities.self_s": s("measures.quotient_complexities"),
        "classifiers.classify.calls": c("classifiers.classify"),
        "classifiers.classify.self_s": s("classifiers.classify"),
    }
    for function in ("read_dfa", "write_dfa"):
        name = f"serialization.{function}"
        m[f"{name}.calls"] = c(name)
        m[f"{name}.self_s"] = s(name)
        m[f"{name}.bytes"] = n(f"{name}.bytes")
    for function in ("make_witness", "make_dialect"):
        name = f"witnesses.{function}"
        m[f"{name}.calls"] = c(name)
        m[f"{name}.self_s"] = s(name)
    m["verify.run_verification.self_s"] = s("verify.run_verification")
    m["verify.rows"] = n("verify.run_verification.rows")
    for module in MODULES:
        m[f"{module}.errors"] = errors[module]
    return m


UNITS = {"calls": "count", "self_s": "s", "states_in": "count", "states_out": "count",
         "kept_ratio": "ratio", "elements": "count", "us_per_element": "us",
         "truncated": "count", "atoms": "count", "us_per_atom": "us", "bytes": "bytes",
         "rows": "count", "errors": "count", "wall_s": "s", "overhead_s": "s"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def read_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["spans"]


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Metric by metric median over passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 perfbench/tracing.py SPAN_FILE...", file=sys.stderr)
        return 2
    metrics = median_metrics([layer_metrics(read_spans(path)) for path in argv])
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {unit_of(key)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
