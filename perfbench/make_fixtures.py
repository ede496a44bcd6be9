"""Regenerate the benchmark's committed inputs and expected outputs.

    python3 perfbench/make_fixtures.py

Writes ``perfbench/tables/*.json`` (``emit_table(dixon_table(build_group(e)))``
for every corpus entry) and ``perfbench/golden_rows.json`` (one row per
(group, p), from the oracle pipeline on the unrelabelled corpus groups).
Run it only when a change to sylowtab is meant to alter tables or verdicts,
and say so in the change.  Takes about 25 s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sylowtab  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workloads.TABLES_DIR.mkdir(exist_ok=True)
    golden = []
    for e in sylowtab.corpus_entries():
        g = sylowtab.build_group(e)
        workloads.table_file(e.name).write_text(sylowtab.emit_table(sylowtab.dixon_table(g)))
        doc = sylowtab.emit_group(sylowtab.GroupDocument(
            degree=e.degree, generators=e.generators, name=e.name,
            expected_order=e.expected_order))
        for p, row in workloads.oracle_rows(doc).items():
            golden.append({"group": e.name, "p": p, **row})
        print(e.name, file=sys.stderr)
    workloads.GOLDEN_FILE.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in golden) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
