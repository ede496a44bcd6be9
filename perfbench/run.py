"""Run one sylowtab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oracle-large --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the library is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the
run times whole passes over the workload's inputs while sampling how fast
the host runs a fixed reference loop, and reports the end-to-end metrics
scaled to one reference speed; with ``--trace 1`` it runs two untraced
passes and one traced pass and reports the per-layer metrics, writing the spans to
``perfbench/out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment and every metric by name with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: after every pass the inputs are generated again, each time after one
#: sample of probe_work, at least this often and for at least this long:
#: one generation takes 0.1 ms (oracle-large) to 70 ms (analyze-tables),
#: too short to time once
SETUP_MIN_REPEATS = 3
SETUP_BATCH_SECONDS = 0.2

#: wall time between two samples of HostProbe; one sample takes about 1 ms
PROBE_INTERVAL_S = 0.1
#: the reference speed: probe_work in this many seconds, about what the
#: 2-core Xeon VM of README.md takes when no other tenant slows it
PROBE_REF_S = 0.001

#: numerical libraries read these once, when numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def probe_work():
    """About 1 ms of the interpreter work sylowtab is made of: Fraction
    arithmetic and small dicts."""
    s, d = Fraction(0), {}
    for i in range(1, 400):
        s += Fraction(i % 13 + 1, i % 97 + 1)
        d[i % 50] = d.get(i % 50, 0) + i * i
    return s


def time_probe_work() -> float:
    """Seconds probe_work takes now, with the garbage collector off so that
    what the program has allocated does not slow it."""
    gc_was_on = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    probe_work()
    seconds = time.perf_counter() - t0
    if gc_was_on:
        gc.enable()
    return seconds


def set_up(workloads, workload: str, seed: int, clock):
    """Generate the inputs repeatedly, each time after one probe sample;
    return them and one generation's time at the reference speed (the
    generations' total over the probe samples' total, times PROBE_REF_S)."""
    gen_s = probe_s = 0.0
    repeats = 0
    start = time.perf_counter()
    while repeats < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_BATCH_SECONDS:
        probe_s += time_probe_work()
        t0 = clock()
        items = workloads.make_inputs(workload, seed)
        gen_s += clock() - t0
        repeats += 1
    return items, PROBE_REF_S * gen_s / probe_s


class HostProbe:
    """Samples how fast the host runs probe_work, every PROBE_INTERVAL_S.

    Other tenants of a shared host slow this process by a factor that
    changes from one second to the next and drifts by up to two over
    minutes.  A SIGALRM handler times probe_work on the main thread, between
    two bytecodes of whatever sylowtab is doing, so the samples are spread
    evenly over time, long inputs included.  Its own time is kept out of the
    measurement: `clock` is perf_counter minus the time spent in the
    handler.  probe_work uses no sylowtab code.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(time_probe_work())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@dataclass
class TimedPass:
    result: object         # workloads.PassResult, timed by HostProbe.clock
    probes: list[float]    # the probe samples taken during the pass
    setup_s: float         # one input generation after the pass, at the reference speed

    def scale(self) -> float:
        """Factor from this pass's seconds to seconds at the reference speed."""
        return PROBE_REF_S / statistics.fmean(self.probes)


def measure(workloads, workload: str, seed: int, items, golden,
            seconds: float) -> list[TimedPass]:
    """Whole passes until `seconds` have elapsed, each followed by a batch
    of input generations; the pass under way when time runs out is
    finished, so the run's length varies by up to a pass."""
    passes = []
    start = time.perf_counter()
    with HostProbe() as probe:
        while not passes or time.perf_counter() - start < seconds:
            first = len(probe.samples)
            res = workloads.run_pass(workload, items, golden, clock=probe.clock)
            passes.append(TimedPass(res, probe.samples[first:],
                                    set_up(workloads, workload, seed, probe.clock)[1]))
    return passes


def end_to_end(passes: list[TimedPass]) -> dict:
    """Medians over the passes of their times at the reference speed.

    A pass's seconds are scaled by PROBE_REF_S over its mean probe sample:
    the probe slows down with the program when other tenants compete for
    the host, so the ratio holds still while the host's speed drifts.
    Set-up is scaled the same way, by the probe samples taken between its
    generations (see set_up).
    """
    scaled = [[t * p.scale() for t in p.result.item_s] for p in passes]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": (statistics.median(p.setup_s for p in passes), "s"),
        "wall_s": (statistics.median(map(sum, scaled)), "s"),
        "item_s_max": (max(map(statistics.median, zip(*scaled))), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def traced_pass(workloads, tracing, workload: str, items, golden, spans_file: Path):
    """Two untraced passes, then one traced pass; per-layer metrics of the
    latter.  The first pass fills sylowtab's caches, so the second is the
    untraced baseline for the tracing overhead."""
    warm = workloads.run_pass(workload, items, golden)
    base = workloads.run_pass(workload, items, golden)
    tr = tracing.Tracer()
    with tracing.traced(tr):
        res = workloads.run_pass(workload, items, golden,
                                 around_item=lambda item: tr.item_span(item.name))
    metrics = tracing.layer_metrics(tr)
    metrics["trace.wall_s"] = (res.wall_s, "s")
    metrics["trace.overhead_s"] = (res.wall_s - base.wall_s, "s")
    metrics["trace.spans"] = (len(tr.spans), "count")
    OUT_DIR.mkdir(exist_ok=True)
    spans_file.write_text(json.dumps({
        "span_fields": ["name", "start_s", "end_s", "parent", "item"],
        "spans": tr.spans,
        "self_s": dict(sorted(tr.self_s.items())),
        "inclusive_s": dict(sorted(tr.incl_s.items())),
        "calls": dict(sorted(tr.calls.items())),
        "counts": dict(sorted(tr.counts.items())),
    }) + "\n")
    return [warm, base, res], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="oracle-large, oracle-small or analyze-tables")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sylowtab" / "__init__.py").is_file():
        print(f"perfbench: no sylowtab sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sylowtab

    if Path(sylowtab.__file__).resolve().parent != SRC / "sylowtab":
        print(f"perfbench: imported sylowtab from {sylowtab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    print("env " + json.dumps(environment()))
    golden = workloads.load_golden()
    items = workloads.make_inputs(args.workload, args.seed)

    if args.trace:
        spans_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        passes, metrics = traced_pass(workloads, tracing, args.workload, items, golden,
                                      spans_file)
        print(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        timed = measure(workloads, args.workload, args.seed, items, golden, args.seconds)
        metrics = end_to_end(timed)
        passes = [p.result for p in timed]
        print("host speed per pass (PROBE_REF_S over mean probe sample) "
              + " ".join(f"{p.scale():.3f}" for p in timed))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"passes {len(passes)}, items per pass {len(items)}, pass times "
          + " ".join(f"{p.wall_s:.3f}" for p in passes) + " s")
    for name, (value, unit) in {**metrics, "fail_frac": (failed / attempted, "ratio")}.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
