"""In-memory spans around cayleyball's public functions, installed from outside.

The package modules bind their collaborators with ``from ... import``, so a
function has to be replaced in every module namespace that calls it
(``cayleyball.cli.build_ball``, ``cayleyball.invariants.max_avoidance``, ...)
and methods on their class.  :func:`installed` does that for the duration of
a ``with`` block and puts the originals back afterwards.

Spans are kept in flat arrays (one entry per call, about 30 bytes) because a
traced workload records up to a million of them; they are written out once,
when the run ends, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
import uuid
import weakref
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cayleyball import ball, cli, geodesics, groups, invariants


class Tracer:
    """Span recorder plus exact counters for one run (one trace id)."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, k: int = 1):
        self.counters[name] = self.counters.get(name, 0) + int(k)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, nid: int) -> int:
        sid = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def arrays(self):
        """Spans as numpy columns: name id, parent span id (-1 = root), start, end."""
        return (
            np.frombuffer(self.name_of, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path):
        """Write every span and counter to ``path`` (numpy ``.npz``)."""
        name_of, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            trace_id=np.array(self.trace_id),
            names=np.array(self.names),
            name=name_of,
            parent=parent,
            start=start,
            end=end,
            counter_names=np.array(sorted(self.counters)),
            counter_values=np.array([self.counters[k] for k in sorted(self.counters)], dtype=np.int64),
        )


def span_times(names, name_of, parent, start, end):
    """Per span name: ``(calls, inclusive seconds, self seconds)``.

    Inclusive time counts only spans with no ancestor of the same name, so a
    nested call (``rips_delta`` calling ``polygon_delta``) is not counted
    twice.  Self time is a span's duration minus its children's durations.
    """
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child

    nested = np.zeros(len(dur), dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        nested[live] |= name_of[anc[live]] == name_of[live]
        anc[live] = parent[anc[live]]

    out = {}
    for nid, name in enumerate(names):
        mine = name_of == nid
        out[name] = (
            int(mine.sum()),
            float(dur[mine & ~nested].sum()),
            float(own[mine].sum()),
        )
    return out


# ---------------------------------------------------------------------------
# where to wrap


@dataclass(frozen=True)
class Probe:
    """Replace ``owner.attr`` by a wrapper.

    With ``span`` set the wrapper records one span per call; without it the
    wrapper only counts calls under ``counter``.  ``on_result`` receives the
    tracer, the call's positional arguments and its return value, and feeds
    exact counters.  ``collect_first`` runs a full garbage collection before
    the span opens.
    """

    owner: object
    attr: str
    span: str | None = None
    counter: str | None = None
    on_result: Callable | None = None
    collect_first: bool = False


def _count_vertices(tracer, args, result):
    tracer.count("ball.vertices", result.n_vertices)


def _mid_block_bytes(seen):
    def hook(tracer, args, result):
        dist = args[0]
        if dist not in seen:
            seen.add(dist)
            tracer.count("ball.mid_block_bytes", result.shape[0] * result.shape[1] * result.itemsize)
    return hook


def _count_paths(tracer, args, result):
    paths, truncated = result
    tracer.count("geodesics.paths", len(paths))
    tracer.count("geodesics.cap_hits", bool(truncated))


# Inputs to ``setup_s``: group parse, ball enumeration and the inner BFS rows.
SETUP_SPANS = ("groups.parse", "ball.build", "ball.distances")


def setup_probes():
    """The three set-up calls, timed in every run (tracing on or off).

    Each radius's set-up starts with a full collection, outside its span:
    otherwise the one full collection an analysis triggers (about 17 ms)
    lands inside a set-up span or not depending on the garbage the previous
    radius's invariants left, which doubles ``setup_s`` of small balls at
    random.
    """
    return [
        Probe(cli, "parse_group_spec", span="groups.parse"),
        Probe(cli, "build_ball", span="ball.build", on_result=_count_vertices, collect_first=True),
        Probe(cli, "all_pairs_distances", span="ball.distances"),
    ]


def layer_probes():
    """Every layer boundary of the traced run, bound where its callers look it up."""
    seen = weakref.WeakSet()
    probes = setup_probes() + [
        Probe(groups.GroupSpec, "multiply", counter="groups.multiply_calls"),
        Probe(ball.DistanceMatrix, "ensure_mid_rows", span="ball.mid_rows", on_result=_mid_block_bytes(seen)),
        Probe(ball.DistanceMatrix, "row", span="ball.row"),
        Probe(geodesics, "enumerate_geodesics", span="geodesics.enumerate", on_result=_count_paths),
        Probe(invariants, "enumerate_geodesics", span="geodesics.enumerate", on_result=_count_paths),
        Probe(invariants, "max_avoidance", span="geodesics.avoidance"),
        Probe(invariants, "max_avoidance_block", span="geodesics.avoidance_block"),
        Probe(cli, "four_point_delta", span="invariants.four_point"),
        Probe(cli, "chain_defect", span="invariants.chain"),
        Probe(cli, "rips_delta", span="invariants.polygon"),
        Probe(cli, "polygon_delta", span="invariants.polygon"),
        Probe(invariants, "polygon_delta", span="invariants.polygon"),
        Probe(cli, "bigon_constants", span="invariants.bigons"),
        Probe(cli, "detour_epsilon", span="invariants.detour"),
        Probe(cli, "mesh_estimate", span="invariants.mesh"),
        Probe(cli, "emit_report", span="cli.emit"),
    ]
    probes += [Probe(m, "interval", span="geodesics.interval") for m in (geodesics, invariants)]
    return probes


def _wrap(tracer, fn, probe):
    if probe.span is None:
        counter = probe.counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counters[counter] = tracer.counters.get(counter, 0) + 1
            return fn(*args, **kwargs)
        return counted

    nid = tracer.name_id(probe.span)
    hook = probe.on_result
    collect_first = probe.collect_first
    open_, close = tracer._open, tracer._close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if collect_first:
            gc.collect()
        sid = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(sid)
        if hook is not None:
            hook(tracer, args, result)
        return result
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, probes):
    """Wrap every probe's target for the duration of the block."""
    originals = []
    try:
        for probe in probes:
            fn = probe.owner.__dict__[probe.attr]
            originals.append((probe.owner, probe.attr, fn))
            setattr(probe.owner, probe.attr, _wrap(tracer, fn, probe))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
