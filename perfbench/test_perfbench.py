"""Checks of the benchmark's own inputs (about 90 s):

    python3 -m pytest perfbench

The committed tables must still be what sylowtab computes, so a change to
the Dixon engine that alters a table is never benchmarked on stale inputs;
and every seed must give the golden rows on every workload.  The last two
tests check how run.py turns pass times into the end-to-end metrics.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import sylowtab  # noqa: E402
import workloads  # noqa: E402

@pytest.mark.parametrize("entry", sylowtab.corpus_entries(), ids=lambda e: e.name)
def test_table_fixture_is_current(entry):
    expected = sylowtab.emit_table(sylowtab.dixon_table(sylowtab.build_group(entry)))
    assert workloads.table_file(entry.name).read_text() == expected


def test_one_table_fixture_per_corpus_entry():
    names = {workloads.table_file(e.name).name for e in sylowtab.corpus_entries()}
    assert names == {p.name for p in workloads.TABLES_DIR.glob("*.json")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_seeds_give_the_golden_rows(workload):
    golden = workloads.load_golden()
    inputs = [workloads.make_inputs(workload, seed) for seed in (0, 1)]
    assert inputs[0] == workloads.make_inputs(workload, 0)
    assert inputs[0] != inputs[1]
    rows = []
    for items in inputs:
        res = workloads.run_pass(workload, items, golden)
        assert res.attempted > 0 and res.failed == 0
        rows.append(res.rows)
    assert rows[0] == rows[1]


def test_end_to_end_scales_each_pass_to_the_reference_speed():
    ref = run.PROBE_REF_S
    # the same work on a host at full speed and on one at half speed
    fast = run.TimedPass(workloads.PassResult(item_s=[1.0, 3.0]), [ref, ref], 0.1)
    slow = run.TimedPass(workloads.PassResult(item_s=[2.0, 6.0]), [ref, 3 * ref], 0.3)
    metrics = run.end_to_end([fast, slow, slow])
    assert metrics["wall_s"][0] == pytest.approx(4.0)
    assert metrics["item_s_max"][0] == pytest.approx(3.0)
    assert metrics["setup_s"][0] == pytest.approx(0.3)


def test_host_probe_samples_and_keeps_its_time_out_of_the_clock():
    with run.HostProbe() as probe:
        wall0, clock0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - wall0 < 5 * run.PROBE_INTERVAL_S:
            sum(range(1000))
    wall, clock = time.perf_counter() - wall0, probe.clock() - clock0
    assert len(probe.samples) >= 3
    assert clock == pytest.approx(wall - probe.spent, abs=1e-4)
    assert probe.spent >= sum(probe.samples)
