"""The benchmark harness under perfbench/ can set up every workload.

A corpus entry without its table fixture makes ``make_inputs`` raise for
``analyze-tables``, and one without golden rows counts every row of that
group as failed; either way a benchmark run dies or reports nothing.  The
tracer wraps sylowtab functions by name, so renaming one of them kills a
traced run.  A pass that ends before the host probe samples once leaves
the end-to-end metrics nothing to scale by.  These tests read perfbench/
and change nothing there.
"""

import sys
from pathlib import Path
from statistics import StatisticsError
from types import SimpleNamespace

import pytest

from sylowtab import dixon
from sylowtab.corpus import corpus_entries

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_make_inputs_for_every_workload(workload):
    items = workloads.make_inputs(workload, 1)
    assert items and all(item.text for item in items)
    names = {item.name for item in items}
    if workload == "analyze-tables":
        assert names == {e.name for e in corpus_entries()}


def test_oracle_workloads_split_the_corpus():
    large = {item.name for item in workloads.make_inputs("oracle-large", 1)}
    small = {item.name for item in workloads.make_inputs("oracle-small", 1)}
    assert large == set(workloads.LARGE_GROUPS) and not large & small
    assert large | small == {e.name for e in corpus_entries()}


def test_every_corpus_pair_has_a_golden_row():
    golden = workloads.load_golden()
    for entry in corpus_entries():
        for p in entry.primes():
            assert (entry.name, p) in golden, (entry.name, p)


# the smallest item of each workload
TRACED_ITEMS = {"oracle-large": "M11", "oracle-small": "S4", "analyze-tables": "S4"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_runs_one_item_of_every_workload(workload):
    item = next(i for i in workloads.make_inputs(workload, 1)
                if i.name == TRACED_ITEMS[workload])
    split = dixon._common_eigenvectors
    tr = tracing.Tracer()
    with tracing.traced(tr):
        res = workloads.run_pass(workload, [item], workloads.load_golden(),
                                 around_item=lambda i: tr.item_span(i.name))
    assert dixon._common_eigenvectors is split  # the wrappers are removed
    assert res.attempted and not res.failed
    metrics = tracing.layer_metrics(tr)
    assert metrics["serialize.parse_s"][0] > 0
    assert (metrics["dixon.attempts"][0] > 0) == (workload != "analyze-tables")


class _InstantWorkload:
    """A workload whose passes and input generations take no time."""

    @staticmethod
    def make_inputs(workload, seed):
        return []

    @staticmethod
    def run_pass(workload, items, golden, clock):
        return SimpleNamespace(item_s=[0.0], wall_s=0.0, attempted=1, failed=0)


@pytest.mark.xfail(raises=StatisticsError, strict=True, reason=(
    "TimedPass.scale divides by the mean of the probe samples taken during "
    "the pass; a pass that ends before the next SIGALRM tick (every "
    "PROBE_INTERVAL_S = 0.1 s) has none, and statistics.fmean raises. "
    "analyze-tables passes take about 0.1 s, so a timed run can die this way."))
def test_a_pass_between_two_probe_ticks_gets_end_to_end_metrics():
    passes = run.measure(_InstantWorkload, "analyze-tables", 1, [], {}, seconds=0)
    assert len(passes) == 1
    assert run.end_to_end(passes)["wall_s"][0] == 0
