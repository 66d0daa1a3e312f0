"""Timing wrappers installed from outside the package.

Two recorders wrap functions by name:

* :class:`Stopwatch` keeps the wall time of each call and the speed
  probes timed between operations.  The untraced run installs it on the
  few entry points whose times are end-to-end metrics, so its cost inside
  a timed call is one ``perf_counter`` pair.
* :class:`Tracer` records a span per call (name, start, end, parent span,
  run id) into flat arrays kept in memory, and derives each layer's self
  time as its span time minus the part of it covered by child spans.

:func:`patched` swaps module attributes for wrapped versions and restores
them on exit.  The package resolves these names at call time (module
attributes and module globals), so a wrapped attribute is seen by every
caller inside the package.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


# Probe kinds, each a fixed piece of work that does not use the package.
# How much a piece of work slows down when the machine does depends on its
# kind, so each operation is set against the probe most like its work:
#
# * ``mix``: small NumPy least-squares solves, Python list building and
#   scalar random draws in an interpreter loop, the kinds of work most of
#   the package's hot paths do;
# * ``qr``: QR factorisations of a 1000x8 matrix, the work of the
#   structural stand-in's statistic.
_QR_MATRIX = np.random.default_rng(0).standard_normal((1000, 8))


def speed_probe(kind: str = "mix") -> float:
    """Seconds taken by the probe of the given kind."""
    start = perf_counter()
    if kind == "qr":
        for _ in range(20):
            np.linalg.qr(_QR_MATRIX)
        return perf_counter() - start
    rng = np.random.default_rng(0)
    for _ in range(40):
        x = rng.standard_normal((40, 2))
        np.linalg.lstsq(x, x[:, 0], rcond=None)
        [float(v) for v in x[:, 1]]
    acc = 0.0
    for _ in range(600):
        acc += (0.3 * rng.gamma(4.0, 0.25) - 0.2) ** 2
    return perf_counter() - start


class Stopwatch:
    """Wall time per call, each set against the machine's speed at the time.

    ``begin(op)`` names the operation that the following calls belong to
    and times one probe of each of ``kinds`` before it; ``finish()`` times
    them once more after the last, so every operation lies between probes.
    """

    # A call is compared with the probes timed within this many of its own
    # durations before its start or after its end.
    WINDOW = 2.0

    def __init__(self, kinds=("mix",)):
        self.calls = []            # (name, operation, start, seconds, index of the probes before)
        self.probe_at = []         # start time of each round of probes
        self.probes = {kind: [] for kind in kinds}   # seconds taken by each probe
        self.op = None

    def _probe(self) -> None:
        self.probe_at.append(perf_counter())
        for kind, times in self.probes.items():
            times.append(speed_probe(kind))

    def begin(self, op) -> None:
        self.op = op
        self._probe()

    def finish(self) -> None:
        self._probe()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.calls.append((name, self.op, start, perf_counter() - start, len(self.probe_at) - 1))
            return result

        return timed

    def ratios(self, name, op_kind=None, kind="mix") -> dict:
        """Per operation, the times of its calls named ``name`` over the
        local time of the ``kind`` probe (operations whose key starts with
        ``op_kind``, if given), and the unscaled times:
        ``{op: ([ratio], [seconds])}``.

        The local probe time is the median of the probes just before and
        just after the call's operation and of every probe timed within
        WINDOW call durations of the call.  Speed changes on the shared
        machines this runs on last from a fraction of a second to minutes:
        a short call is set against the probes beside it, a long one
        against the speed averaged over about as long as it ran.
        """
        at = np.asarray(self.probe_at)
        probes = np.asarray(self.probes[kind])
        out = {}
        for n, op, start, t, i in self.calls:
            if n != name or (op_kind is not None and op[0] != op_kind):
                continue
            lo, hi = np.searchsorted(at, [start - self.WINDOW * t, start + (1 + self.WINDOW) * t])
            near = np.concatenate((probes[lo:hi], probes[i:i + 2]))
            ratio, wall = out.setdefault(op, ([], []))
            ratio.append(t / float(np.median(near)))
            wall.append(t)
        return out


class Tracer:
    """In-memory span recorder.

    Spans opened on a worker thread with no open span of their own take
    the innermost open span of the main thread as parent: the package
    only starts workers while the main thread waits inside the call that
    owns them.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0            # one id per operation: see begin()
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def begin(self, op) -> None:
        self.run_id += 1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def wrap(self, name, fn, on_result=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``on_result(args, kwargs, result, parent)`` runs after a
        successful call, with ``parent`` the name of the enclosing span,
        to update counters at the same boundary.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            with self._lock:
                idx = len(self.start)
                self.name.append(nid)
                self.parent.append(parent)
                self.run.append(self.run_id)
                self.end.append(0.0)
                self.start.append(perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result, self.names[self.name[parent]] if parent >= 0 else None)
            return result

        return traced

    def layer_times(self, roots=()) -> dict[str, dict]:
        """Per span name: ``calls``, total ``ms`` and ``self_ms``.

        Self time is a span's duration minus the union of its direct
        children's intervals; children on worker threads may overlap, so
        the intervals are merged per parent before they are subtracted.
        For each name in ``roots``, ``self_ms_under[root]`` is the part of
        the self time spent inside a span of that name.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        covered = np.zeros(dur.size)
        child = np.flatnonzero(parent >= 0)
        if child.size:
            order = child[np.lexsort((start[child], parent[child]))]
            _, group = np.unique(parent[order], return_inverse=True)
            # Shift each parent's children onto a disjoint stretch of the time
            # axis, so one running maximum merges intervals group by group.
            span = float(end.max() - start.min()) + 1.0
            lo = start[order] - start.min() + group * span
            hi = end[order] - start.min() + group * span
            prev_hi = np.concatenate(([-np.inf], np.maximum.accumulate(hi)[:-1]))
            contrib = np.maximum(hi - np.maximum(lo, prev_hi), 0.0)
            covered = np.bincount(parent[order], weights=contrib, minlength=dur.size)
        self_time = dur - covered
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        out = {
            label: {"calls": int(calls[i]), "ms": 1e3 * float(total[i]),
                    "self_ms": 1e3 * float(own[i]), "self_ms_under": {}}
            for i, label in enumerate(self.names)
        }
        for root in roots:
            if root not in self._ids:
                continue
            rid = self._ids[root]
            # Walk every span up its parent chain until it meets a root span.
            inside = name == rid
            anc = parent.copy()
            while True:
                live = (anc >= 0) & ~inside
                if not live.any():
                    break
                inside[live] = name[anc[live]] == rid
                anc[live] = parent[anc[live]]
            under = np.bincount(name, weights=np.where(inside, self_time, 0.0), minlength=n)
            for i, label in enumerate(self.names):
                out[label]["self_ms_under"][root] = 1e3 * float(under[i])
        return out

    def save(self, path) -> None:
        """Write every span to ``path`` (NumPy ``.npz``)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int64),
        )


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace attributes: ``targets`` is ``[(owner, attr, new)]``."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
