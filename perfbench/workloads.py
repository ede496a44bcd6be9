"""Seeded inputs and timed passes for the three benchmark workloads.

Every workload feeds sylowtab the documents a user would hand to the CLI:

* ``oracle-large`` and ``oracle-small``: JSON group documents for the
  corpus groups with their points relabelled by the seed, each run
  through the ``sylowtab oracle --all-primes`` pipeline (enumerate, Dixon
  table, brute-force ground truth at every prime, both detectors, blocks,
  report).  ``oracle-large`` has the four groups of order 7,920 and more
  (S8, S9, A8, M11), where enumeration and class matrices take the time;
  ``oracle-small`` has the other 29, where the Dixon split and lift,
  cyclotomic arithmetic and block reduction do.  A pass of each is
  together the work of ``sylowtab corpus``.
* ``analyze-tables``: the committed corpus character tables with classes
  and characters jointly permuted by the seed, each run through the
  ``sylowtab analyze --all-primes`` pipeline (parse, validate, detectors,
  blocks, report).

Relabelling points or reordering classes does not change any verdict, so
every row is compared against the committed golden rows.  The library is
called through the ``sylowtab`` package namespace so that the tracer in
``tracing.py`` sees every call once it has patched that namespace.
"""

from __future__ import annotations

import json
import random
import re
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import sylowtab

HERE = Path(__file__).resolve().parent
TABLES_DIR = HERE / "tables"
GOLDEN_FILE = HERE / "golden_rows.json"

WORKLOADS = ("oracle-large", "oracle-small", "analyze-tables")
#: the corpus groups of oracle-large; oracle-small has the rest
LARGE_GROUPS = ("S8", "S9", "A8", "M11")

#: row fields compared against the golden rows; reason text is not compared
#: because it names class indices that the seeded reordering moves
TABLE_FIELDS = ("thmA", "thmB", "thmA_code", "thmB_code", "abelian_sylow", "hz0")
ORACLE_FIELDS = TABLE_FIELDS + ("oracle_comm", "oracle_center", "oracle_abelian")


@dataclass(frozen=True)
class Item:
    """One document of a pass: a group or a table."""

    name: str    # corpus group name: key into the golden rows, id of its spans
    text: str    # JSON group document or JSON table document


@dataclass
class PassResult:
    wall_s: float = 0.0
    item_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rows: dict[tuple[str, int], dict | None] = field(default_factory=dict)


def table_file(name: str) -> Path:
    """Fixture path of a corpus group's table: 'SL(2,3)' -> tables/SL_2_3.json."""
    return TABLES_DIR / (re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_") + ".json")


def load_golden() -> dict[tuple[str, int], dict]:
    rows = json.loads(GOLDEN_FILE.read_text())
    return {(r["group"], r["p"]): r for r in rows}


# -- seeded inputs ----------------------------------------------------


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed, *parts)))


def relabel_group(entry, rng: random.Random) -> str:
    """Group document of `entry` with its points renamed by a random bijection."""
    sigma = list(range(entry.degree))
    rng.shuffle(sigma)
    gens = []
    for g in entry.generators:
        img = [0] * entry.degree
        for x, gx in enumerate(g):
            img[sigma[x]] = sigma[gx]
        gens.append(tuple(img))
    return sylowtab.emit_group(sylowtab.GroupDocument(
        degree=entry.degree, generators=tuple(gens), name=entry.name,
        expected_order=entry.expected_order))


def permute_table(doc: dict, rng: random.Random) -> str:
    """Table document with classes and characters reordered jointly.

    Class 0 (the identity) and row 0 (the trivial character) stay first,
    as the table format requires; power maps are re-indexed.
    """
    k = len(doc["classes"])
    cols = [0] + rng.sample(range(1, k), k - 1)  # new column j is old class cols[j]
    rows = [0] + rng.sample(range(1, k), k - 1)
    new_of = {old: new for new, old in enumerate(cols)}
    out = dict(doc)
    out["classes"] = [doc["classes"][c] for c in cols]
    out["power_maps"] = {p: [new_of[m[c]] for c in cols]
                         for p, m in doc["power_maps"].items()}
    out["characters"] = [[doc["characters"][i][c] for c in cols] for i in rows]
    return json.dumps(out, indent=1) + "\n"


def make_inputs(workload: str, seed: int) -> list[Item]:
    """The documents of one pass; the same seed gives the same documents."""
    entries = sylowtab.corpus_entries()
    if workload in ("oracle-large", "oracle-small"):
        large = workload == "oracle-large"
        return [Item(e.name, relabel_group(e, _rng(seed, e.name))) for e in entries
                if (e.name in LARGE_GROUPS) == large]
    if workload == "analyze-tables":
        return [Item(e.name, permute_table(json.loads(table_file(e.name).read_text()),
                                           _rng(seed, e.name)))
                for e in entries]
    raise ValueError(f"unknown workload {workload!r}")


# -- the pipeline -----------------------------------------------------


def _code(v) -> str | None:
    return v.reason.split(":")[0] if v.answer == "unknown" else None


def _report_row(t, p: int, gt=None):
    """Both verdicts plus the block data at p, as the CLI builds them."""
    va = sylowtab.detect_commutator_index_p2(t, p)
    vb = sylowtab.detect_center_index_p2(t, p)
    report = sylowtab.ReportRow(
        group=t.name or "?", p=p, thm_a=va.answer, thm_b=vb.answer,
        abelian_sylow=sylowtab.abelian_sylow_test(t, p),
        height_zero_principal=sylowtab.count_height_zero_principal(t, p),
        oracle_commutator_p2=None if gt is None else gt.commutator_index == p * p,
        oracle_center_p2=None if gt is None else gt.center_index == p * p,
        oracle_abelian=None if gt is None else gt.abelian)
    row = {"thmA": va.answer, "thmB": vb.answer, "thmA_code": _code(va),
           "thmB_code": _code(vb), "abelian_sylow": report.abelian_sylow,
           "hz0": report.height_zero_principal}
    if gt is not None:
        row.update(oracle_comm=report.oracle_commutator_p2,
                   oracle_center=report.oracle_center_p2,
                   oracle_abelian=report.oracle_abelian)
    return report, row


def oracle_rows(text: str) -> dict[int, dict]:
    """`sylowtab oracle --all-primes` on a group document: p -> row."""
    doc = sylowtab.parse_group(text)
    g = sylowtab.PermGroup(doc.degree, [list(x) for x in doc.generators], name=doc.name)
    if doc.expected_order is not None and g.order != doc.expected_order:
        raise ValueError(f"{doc.name}: order {g.order} != expected {doc.expected_order}")
    t = sylowtab.dixon_table(g)
    out, reports = {}, []
    for p in sylowtab.numutil.prime_divisors(g.order):
        report, out[p] = _report_row(t, p, g.ground_truth(p))
        reports.append(report)
    sylowtab.emit_report(reports)
    return out


def analyze_rows(text: str) -> dict[int, dict]:
    """`sylowtab analyze --all-primes` on a table document: p -> row."""
    t = sylowtab.parse_table(text)
    out, reports = {}, []
    for p in sylowtab.numutil.prime_divisors(t.group_order):
        report, out[p] = _report_row(t, p)
        reports.append(report)
    sylowtab.emit_report(reports)
    return out


def run_item(workload: str, item: Item) -> dict[int, dict]:
    return (analyze_rows if workload == "analyze-tables" else oracle_rows)(item.text)


def run_pass(workload: str, items: list[Item], golden, around_item=None,
             clock=time.perf_counter) -> PassResult:
    """Run every item once, timing each by `clock`; count rows that differ
    from golden.

    A (group, p) pair fails when its row differs from the golden row, is
    missing, or its item raised.  Each item runs inside the context manager
    `around_item(item)` when given (the tracer opens the item's root span).
    """
    fields = TABLE_FIELDS if workload == "analyze-tables" else ORACLE_FIELDS
    res = PassResult()
    start = clock()
    for item in items:
        t0 = clock()
        try:
            with around_item(item) if around_item else nullcontext():
                rows = run_item(workload, item)
        except Exception as exc:  # a failing item is counted, not fatal
            print(f"{workload} {item.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rows = {}
        res.item_s.append(clock() - t0)
        want = {p: g for (name, p), g in golden.items() if name == item.name}
        for p in sorted(set(want) | set(rows)):
            got, g = rows.get(p), want.get(p)
            res.rows[(item.name, p)] = got
            res.attempted += 1
            if got is None or g is None or any(got[f] != g[f] for f in fields):
                res.failed += 1
    res.wall_s = clock() - start
    return res
