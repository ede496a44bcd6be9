"""Per-layer tracing of sylowtab from outside its source.

`traced(tracer)` wraps functions of the ``src/sylowtab`` modules for the
duration of a ``with`` block and restores them afterwards.  A wrapped
module-level function is replaced in every sylowtab module that holds it,
so names imported elsewhere (``detectors`` imports ``quotient_table`` and
``normal_lattice`` by name) are traced too.

Three kinds of wrapper:

* span: records (name, start, end, parent, item) in memory, once per call;
* timer: like a span but kept only as totals, for functions called up to
  millions of times (canonicalization, ideal reduction);
* counter: counts calls and no time.

A span or timer's *self time* is its duration minus the time of the spans
and timers nested inside it, so self times of different names add up.
Counter wrappers cost time that lands in the caller's self time; the
traced pass's wall time minus an untraced pass's gives that overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from sylowtab import (blocks, chartab, cyclo, detectors, dixon, gfpm, perm,
                      serialize, simplerec)


class Tracer:
    """Spans, self/inclusive times and counters of one traced pass."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.item: str | None = None
        self.spans: list[list] = []   # [name, start, end, parent, item], times from t0
        self._stack: list[list] = []  # [name, start, child_time, span index or -1]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_conductor = 0
        self.partitions: set = set()

    def enter(self, name: str, record: bool) -> list:
        now = time.perf_counter()
        idx = -1
        if record:
            idx = len(self.spans)
            parent = self._stack[-1][3] if self._stack else -1
            self.spans.append([name, now - self.t0, None, parent, self.item])
        frame = [name, now, 0.0, idx]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        now = time.perf_counter()
        self._stack.pop()
        name, start, child, idx = frame
        dur = now - start
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][2] = now - self.t0

    @contextmanager
    def item_span(self, item: str):
        """Root span of one input item; spans inside it share its id."""
        self.item = item
        frame = self.enter("item", True)
        try:
            yield
        finally:
            self.exit(frame)


def _span(tr: Tracer, name: str, fn, record: bool = True, when=None, after=None):
    """Time `fn` under `name`; skip calls where `when(*args)` is false."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(*args):
            return fn(*args, **kwargs)
        frame = tr.enter(name, record)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.exit(frame)
        if after is not None:
            after(out, *args)
        return out

    return wrapper


def _before(fn, hook):
    """Call `hook(*args)` ahead of every call of `fn`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hook(*args)
        return fn(*args, **kwargs)

    return wrapper


def _count(tr: Tracer, key: str, fn):
    def hook(*args):
        tr.counts[key] += 1

    return _before(fn, hook)


def _sylowtab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sylowtab" or name.startswith("sylowtab."))]


@contextmanager
def traced(tr: Tracer):
    """Install the layer wrappers on sylowtab; remove them on exit."""
    undo: list = []
    try:
        _install(tr, undo)
        yield tr
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def _install(tr: Tracer, undo: list) -> None:
    """Wrap the layer functions, appending (owner, attr, original) to `undo`."""

    def patch_attr(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_function(module, attr, make):
        orig = getattr(module, attr)
        new = make(orig)
        for m in _sylowtab_modules():
            for key, value in list(vars(m).items()):
                if value is orig:
                    patch_attr(m, key, new)

    def method(cls, attr, make):
        patch_attr(cls, attr, make(getattr(cls, attr)))

    # perm: enumeration and conjugacy are timed only when they compute
    # (both are cached on the group and called again and again)
    def count_elements(out, g):
        tr.counts["perm.elements_count"] += len(out)

    def count_rows(g, rows):
        tr.counts["perm.index_batch_calls"] += 1
        tr.counts["perm.index_batch_rows"] += len(rows)

    P = perm.PermGroup
    method(P, "elements", lambda f: _span(
        tr, "perm.elements", f, when=lambda g: getattr(g, "_elements", None) is None,
        after=count_elements))
    method(P, "conjugacy_data", lambda f: _span(
        tr, "perm.conjugacy", f, when=lambda g: getattr(g, "_conj", None) is None))
    method(P, "ground_truth", lambda f: _span(tr, "perm.ground_truth", f))
    method(P, "index_batch", lambda f: _before(f, count_rows))

    # dixon
    def count_split(out, *args):
        tr.counts["dixon.split_ok"] += out is not None

    patch_function(dixon, "dixon_table", lambda f: _span(tr, "dixon.table", f))
    patch_function(dixon, "class_matrices", lambda f: _span(tr, "dixon.class_matrices", f))
    patch_function(dixon, "_common_eigenvectors", lambda f: _span(
        tr, "dixon.split", f, record=False, after=count_split))

    # cyclo: arithmetic is counted, canonicalization timed
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "conjugate"):
        method(cyclo.Cyc, op, lambda f: _count(tr, "cyclo.ops", f))

    def note_conductor(n, coeffs):
        tr.max_conductor = max(tr.max_conductor, n)

    patch_function(cyclo, "_canonicalize", lambda f: _before(
        _span(tr, "cyclo.canonicalize", f, record=False), note_conductor))

    # gfpm
    method(gfpm.CycReducer, "__init__", lambda f: _span(tr, "gfpm.reducer_init", f, record=False))
    method(gfpm.CycReducer, "reduce", lambda f: _span(tr, "gfpm.reduce", f, record=False))

    # chartab
    def count_lattice(t):
        tr.counts["chartab.lattice_calls"] += 1
        if "lattice" not in getattr(t, "_memo", {}):
            tr.counts["chartab.lattice_builds"] += 1

    patch_function(chartab, "validate", lambda f: _span(tr, "chartab.validate", f))
    patch_function(chartab, "normal_lattice", lambda f: _before(f, count_lattice))
    patch_function(chartab, "quotient_table", lambda f: _span(tr, "chartab.quotient", f))

    # blocks: a partition is useful the first time its (item, table, p) is seen
    def note_partition(t, p, *args):
        tr.partitions.add((tr.item, p, t.group_order, t.classes, t.chars))

    patch_function(blocks, "block_partition", lambda f: _before(
        _span(tr, "blocks.partition", f), note_partition))

    patch_function(simplerec, "recognize_minimal_normal",
                   lambda f: _span(tr, "simplerec.recognize", f))
    patch_function(detectors, "detect_commutator_index_p2",
                   lambda f: _span(tr, "detectors.thmA", f))
    patch_function(detectors, "detect_center_index_p2",
                   lambda f: _span(tr, "detectors.thmB", f))

    patch_function(serialize, "parse_table", lambda f: _span(tr, "serialize.parse", f))
    patch_function(serialize, "parse_group", lambda f: _span(tr, "serialize.parse", f))
    patch_function(serialize, "emit_report", lambda f: _span(tr, "serialize.report", f))


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced pass: name -> (value, unit)."""
    s, incl, calls, counts = tr.self_s, tr.incl_s, tr.calls, tr.counts

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "perm.elements_s": (s["perm.elements"], "s"),
        "perm.elements_count": (counts["perm.elements_count"], "count"),
        "perm.conjugacy_s": (s["perm.conjugacy"], "s"),
        "perm.ground_truth_s": (s["perm.ground_truth"], "s"),
        "perm.index_batch_calls": (counts["perm.index_batch_calls"], "count"),
        "perm.index_batch_rows": (counts["perm.index_batch_rows"], "count"),
        "dixon.class_matrices_s": (s["dixon.class_matrices"], "s"),
        "dixon.table_self_s": (s["dixon.table"] + s["dixon.split"], "s"),
        "dixon.attempts": (calls["dixon.split"], "count"),
        "dixon.split_ok_ratio": (ratio(counts["dixon.split_ok"], calls["dixon.split"]), "ratio"),
        "cyclo.ops": (counts["cyclo.ops"], "count"),
        "cyclo.canonicalize_calls": (calls["cyclo.canonicalize"], "count"),
        "cyclo.canonicalize_s": (s["cyclo.canonicalize"], "s"),
        "cyclo.max_conductor": (tr.max_conductor, "conductor"),
        "gfpm.reducer_builds": (calls["gfpm.reducer_init"], "count"),
        "gfpm.reducer_init_s": (s["gfpm.reducer_init"], "s"),
        "gfpm.reduce_calls": (calls["gfpm.reduce"], "count"),
        "gfpm.reduce_s": (s["gfpm.reduce"], "s"),
        "chartab.validate_s": (s["chartab.validate"], "s"),
        "chartab.lattice_calls": (counts["chartab.lattice_calls"], "count"),
        "chartab.lattice_builds": (counts["chartab.lattice_builds"], "count"),
        "chartab.quotient_calls": (calls["chartab.quotient"], "count"),
        "chartab.quotient_s": (s["chartab.quotient"], "s"),
        "blocks.partition_calls": (calls["blocks.partition"], "count"),
        "blocks.partition_distinct": (len(tr.partitions), "count"),
        "blocks.partition_useful_ratio": (ratio(len(tr.partitions), calls["blocks.partition"]),
                                          "ratio"),
        "blocks.partition_s": (s["blocks.partition"], "s"),
        "simplerec.recognize_calls": (calls["simplerec.recognize"], "count"),
        "simplerec.recognize_s": (s["simplerec.recognize"], "s"),
        "detectors.thmA_s": (incl["detectors.thmA"], "s"),
        "detectors.thmB_s": (incl["detectors.thmB"], "s"),
        "detectors.self_s": (s["detectors.thmA"] + s["detectors.thmB"], "s"),
        "serialize.parse_s": (s["serialize.parse"], "s"),
        "serialize.report_s": (s["serialize.report"], "s"),
    }
