"""In-process workloads: the sequential core drive and the operator paths.

Everything here runs single-threaded in the benchmark's own process, in
a closed loop (the next call starts when the previous one returns):

* ``drive`` — one algorithm over one stream through the public
  ``make_algorithm`` → ``attach``/``warmup``/``slide``/``topk`` sequence,
  the same sequence ``repro.streams.runner.run_stream`` uses;
* ``batch_path`` — the batch operator's per-group work without Spark:
  an ``IncrementalDriver`` fed ``s`` arrivals at a time, as
  ``continuous_topk_operator`` feeds it;
* ``replay`` — the streaming operator's per-key state cycle without
  Spark: per micro-batch chunk, ``IncrementalDriver.loads`` → ``feed``
  → ``dumps``, with the operator's reorder buffer in front of ``feed``.

Every path times its smallest deterministic units of work (one window,
one ``feed``, one key's cycle in one chunk), and each unit records the
host speed in force when it ran (see ``Speed``). A path repeated over
rounds does identical work each time, so ``unit_median`` combines the
repetitions unit by unit.

Correctness checks run outside every timed region and never stop the
run: mismatching windows are counted and reported.
"""
from __future__ import annotations

import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.metrics import Metrics
from repro.core.query import TopKQuery
from repro.streams.incremental import IncrementalDriver
from repro.streams.runner import make_algorithm

SAP_ALGO = "sap-enhanced"
BASELINE_ALGO = "mintopk"

clock = time.perf_counter


@dataclass
class Tally:
    """Windows checked against a reference, and those that differed."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


@dataclass
class Stream:
    """One keyed input stream and its reference top-k per window."""

    sid: int
    dataset: str
    seed: int
    scores: np.ndarray
    ref: np.ndarray | None = None  # (windows, k) arrival indices


#: The probe's time at full speed on the development host (Intel Xeon,
#: 4 vCPUs); scaled times read as seconds on that host at full speed.
REFERENCE_PROBE_S = 20e-6


def _probe_loop() -> int:
    acc = 0
    d: dict[int, int] = {}
    for i in range(200):
        d[i & 63] = i
        acc += d.get((i * 7) & 63, 0)
    return acc


class Speed:
    """Host-speed probe: a fixed pure-Python loop, timed every few ms.

    On a shared host, neighbours change how fast this process runs for
    seconds at a time (by up to 1.7x on the development host, with
    thread CPU time equal to wall time, so it is not preemption), and
    all code slows alike. Each timed unit keeps the probe time in force
    when it ran, and ``scale`` expresses the unit at the reference probe
    time. That takes the swings out of run-to-run comparisons, while a
    change to the measured code still moves the result one for one.
    """

    def __init__(self, every_s: float = 0.01) -> None:
        self.every_s = every_s
        self._at = float("-inf")
        self.current = float("nan")

    def probe(self) -> float:
        """Probe time in force now (re-measured when older than ``every_s``)."""
        now = clock()
        if now - self._at >= self.every_s:
            best = float("inf")
            for _ in range(3):  # the fastest of three sheds interrupts
                t0 = clock()
                _probe_loop()
                best = min(best, clock() - t0)
            self.current = best
            self._at = clock()
        return self.current

    @staticmethod
    def scale(unit_s: np.ndarray, probe_s: np.ndarray) -> np.ndarray:
        """Unit seconds at the reference host speed."""
        return unit_s * (REFERENCE_PROBE_S / probe_s)


def spans(tracer):
    """``tracer.span``, or a stand-in that records nothing when untraced."""
    return tracer.span if tracer is not None else (lambda *a, **kw: nullcontext())


def unit_median(reps: list[np.ndarray]) -> np.ndarray:
    """Per-unit median over repetitions of the same units of work."""
    return np.median(np.stack(reps), axis=0)


def window_mismatches(got: np.ndarray, ref: np.ndarray) -> int:
    """Windows whose top-k differs from the reference (shape-safe)."""
    if got.shape != ref.shape:
        return len(ref)
    return int(np.any(got != ref, axis=1).sum())


def rows_mismatches(
    window: np.ndarray, rank: np.ndarray, t: np.ndarray, score: np.ndarray,
    st: Stream, k: int,
) -> int:
    """Check an operator's ``(window, rank, t, score)`` columns.

    Rows must come in window then rank order, one window after another,
    each holding the reference top-k and the stream's score for each
    ``t``. A wrong row count fails every window.
    """
    ref = st.ref
    if len(t) != ref.size:
        return len(ref)
    ok = (
        (window == np.repeat(np.arange(len(ref)), k))
        & (rank == np.tile(np.arange(1, k + 1), len(ref)))
        & (t == ref.reshape(-1))
        & (score == st.scores[np.clip(t, 0, len(st.scores) - 1)])
    )
    return int(np.any(~ok.reshape(len(ref), k), axis=1).sum())


def feed_mismatches(rows: list[tuple[int, int, int, float]], st: Stream, k: int) -> int:
    """``rows_mismatches`` for the row tuples ``IncrementalDriver.feed`` emits."""
    if not rows:
        return len(st.ref)
    w, r, t, sc = zip(*rows)
    return rows_mismatches(
        np.array(w), np.array(r), np.array(t), np.array(sc, dtype=np.float64), st, k
    )


@dataclass
class Pass:
    """Timings of one algorithm pass over one stream."""

    unit_s: np.ndarray  # [warmup, window 0, window 1, ...] seconds
    probe_s: np.ndarray  # Speed probe time in force for each unit
    candidates: list[int]
    metrics: Metrics


def drive(
    algo: str, st: Stream, q: TopKQuery, speed: Speed, tracer=None
) -> tuple[np.ndarray, Pass]:
    """Run ``algo`` over one stream; return its (windows, k) results.

    Times ``warmup`` and, per window ``j``, ``slide(j)`` + ``topk()``
    (window 0 is ``topk()`` alone). ``attach`` and the candidate-count
    sample stay outside the timers, as in ``run_stream``.
    """
    span = spans(tracer)
    n_win = q.num_windows(len(st.scores))
    out = np.empty((n_win, q.k), dtype=np.int64)
    unit_s = np.empty(n_win + 1)
    probe_s = np.empty(n_win + 1)
    cand = []
    a = make_algorithm(algo, q)
    a.attach(st.scores)
    with span("run", algo=algo, dataset=st.dataset, seed=st.seed, sid=st.sid):
        probe_s[0] = speed.probe()
        with span("warmup"):
            t0 = clock()
            a.warmup()
            unit_s[0] = clock() - t0
        for j in range(n_win):
            probe_s[j + 1] = speed.probe()
            with span("window", j=j):
                t0 = clock()
                if j:
                    a.slide(j)
                ids = a.topk()
                unit_s[j + 1] = clock() - t0
            cand.append(a.candidate_count())
            out[j] = ids
    return out, Pass(unit_s, probe_s, cand, a.metrics)


def checked_drive(algo, st, q, speed: Speed, tally: Tally, tracer=None) -> Pass | None:
    """``drive`` plus the reference check; a crash fails every window."""
    n_win = q.num_windows(len(st.scores))
    try:
        got, p = drive(algo, st, q, speed, tracer)
    except Exception:
        traceback.print_exc()
        tally.add(n_win, n_win)
        return None
    tally.add(n_win, window_mismatches(got, st.ref))
    return p


def batch_path(st: Stream, q: TopKQuery, speed: Speed, tally: Tally):
    """Feed one stream ``s`` arrivals at a time, as the batch operator does.

    Returns the seconds and probe times of each unit (driver
    construction, then every ``feed``) and the final buffer length;
    None when the path crashed.
    """
    n_win = q.num_windows(len(st.scores))
    offsets = range(0, len(st.scores), q.s)
    unit_s = np.empty(len(offsets) + 1)
    probe_s = np.empty(len(offsets) + 1)
    rows: list = []
    try:
        probe_s[0] = speed.probe()
        t0 = clock()
        drv = IncrementalDriver(SAP_ALGO, q)
        unit_s[0] = clock() - t0
        for i, off in enumerate(offsets, 1):
            probe_s[i] = speed.probe()
            t0 = clock()
            got = drv.feed(st.scores[off : off + q.s])
            unit_s[i] = clock() - t0
            rows.extend(got)
    except Exception:
        traceback.print_exc()
        tally.add(n_win, n_win)
        return None
    tally.add(n_win, feed_mismatches(rows, st, q.k))
    return unit_s, probe_s, len(drv.buffer)


def chunk_bounds(length: int, chunks: int) -> list[tuple[int, int]]:
    """``chunks`` contiguous, near-equal arrival ranges covering a stream."""
    edges = np.linspace(0, length, chunks + 1).round().astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


@dataclass
class ReplayStats:
    """State-cycle timings of one replay."""

    cycle_s: np.ndarray  # (chunks, keys) seconds of loads → feed → dumps
    probe_s: np.ndarray  # (chunks, keys) Speed probe time in force
    chunk_rows: list[int] = field(default_factory=list)
    loads_s: float = 0.0
    dumps_s: float = 0.0
    blob_bytes: list[int] = field(default_factory=list)  # all keys, per chunk
    pending_max: int = 0


def replay(
    streams: list[Stream], q: TopKQuery, chunks: int, speed: Speed, tally: Tally,
    tracer=None,
) -> ReplayStats:
    """The streaming operator's per-key state cycle, chunk by chunk.

    Each key's state lives only as the ``dumps`` blob between chunks, as
    it lives in Spark's ``GroupState``; arrivals are staged in a reorder
    buffer and only the contiguous prefix is fed.
    """
    span = spans(tracer)
    rs = ReplayStats(np.zeros((chunks, len(streams))), np.ones((chunks, len(streams))))
    length = len(streams[0].scores)
    blobs: dict[int, bytes | None] = {st.sid: None for st in streams}
    cursor = {st.sid: 0 for st in streams}
    pending: dict[int, dict[int, float]] = {st.sid: {} for st in streams}
    rows: dict[int, list] = {st.sid: [] for st in streams}
    broken: set[int] = set()
    for c, (a, b) in enumerate(chunk_bounds(length, chunks)):
        with span("micro_batch", chunk=c):
            for i, st in enumerate(streams):
                if st.sid in broken:
                    continue
                try:
                    rs.probe_s[c, i] = speed.probe()
                    with span("key", sid=st.sid):
                        t0 = clock()
                        with span("state.loads"):
                            blob = blobs[st.sid]
                            drv = (
                                IncrementalDriver(SAP_ALGO, q)
                                if blob is None
                                else IncrementalDriver.loads(blob)
                            )
                        t1 = clock()
                        pend = pending[st.sid]
                        pend.update(zip(range(a, b), st.scores[a:b].tolist()))
                        nxt = cursor[st.sid]
                        ready = []
                        while nxt in pend:
                            ready.append(pend.pop(nxt))
                            nxt += 1
                        cursor[st.sid] = nxt
                        rows[st.sid].extend(
                            drv.feed(np.asarray(ready, dtype=np.float64))
                        )
                        t2 = clock()
                        with span("state.dumps"):
                            blobs[st.sid] = drv.dumps()
                        t3 = clock()
                except Exception:
                    traceback.print_exc()
                    broken.add(st.sid)
                    continue
                rs.cycle_s[c, i] = t3 - t0
                rs.loads_s += t1 - t0
                rs.dumps_s += t3 - t2
                rs.pending_max = max(rs.pending_max, len(pend))
        rs.chunk_rows.append((b - a) * len(streams))
        rs.blob_bytes.append(sum(len(x) for x in blobs.values() if x))
    for st in streams:
        n_win = q.num_windows(len(st.scores))
        if st.sid in broken:
            tally.add(n_win, n_win)
        else:
            tally.add(n_win, feed_mismatches(rows[st.sid], st, q.k))
    return rs
