"""Record the references that verify-default and small-corpus are checked
against.

    python3 perfbench/record.py

The files under ``reference/`` were written by this script from the
package at the commit that introduced the benchmark, whose default
verify report (736 PASS, 0 FAIL, 28 SKIP) and test suite were trusted.
Re-record only at a commit whose outputs have been checked another way:
a change to the package must not re-record the references it is
measured against.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import suffixconvex as sc  # noqa: E402
import workloads  # noqa: E402


def write(name: str, doc: dict) -> None:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(workloads.REFERENCE_DIR, name), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, separators=(",", ":")) + "\n")


def main() -> int:
    report = sc.run_verification()
    write("verify_default.json", {
        "summary": [report.passed, report.failed, report.skipped],
        "entries": [workloads.entry_row(e) for e in report.entries],
    })
    pool = workloads.corpus_pool()
    digests = []
    for index, spec in enumerate(pool):
        d = workloads.build_dfa(sc, spec)
        partner = workloads.build_dfa(sc, pool[(index + 1) % len(pool)])
        digests.append(workloads.corpus_digest(workloads.corpus_results(sc, d, partner)))
    write("corpus_digests.json", {"pool_seed": workloads.POOL_SEED, "digests": digests})
    print(f"verify: {report.passed} passed, {report.failed} failed, {report.skipped} skipped; "
          f"{len(digests)} corpus digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
