"""Span tracer for the traced benchmark run.

The tracer measures the program from outside: ``install`` replaces a
fixed list of layer entry points (methods of ``repro.core.*``,
``repro.baselines.*`` and ``repro.streams.*`` classes) with timing
wrappers, and ``uninstall`` puts the original functions back. Nothing
under ``src/`` is edited, and an untraced run never calls ``install``.

Two kinds of record are kept, both in memory until ``dump``:

* **hook statistics** — per entry point: inclusive seconds, self
  seconds (inclusive minus the time of wrapped entry points it called),
  call count and an optional tally of its results (e.g. pruned offers);
* **spans** — coarse, explicit spans opened by the benchmark loop
  (workload → stream run → window, micro-batch, key → loads/feed/dumps).
  Per-object hooks are not recorded one by one: each span stores the
  sum and count of every hook that ran inside it.
"""
from __future__ import annotations

import gzip
import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.baselines.mintopk import MinTopK
from repro.core.candidates import CandidateSet
from repro.core.sap import SAP
from repro.core.savl import SAVL, MeaningfulSet
from repro.core.sorted_store import SortedStore
from repro.core.tbui import TBUITracker
from repro.streams.incremental import IncrementalDriver


def _truthy(r) -> int:
    return 1 if r else 0


def _falsy(r) -> int:
    return 0 if r else 1


# (owner class, attribute, hook name, layer, result tally or None)
HOOKS: tuple[tuple[type, str, str, str, Callable | None], ...] = (
    (SAP, "warmup", "sap.warmup", "core.sap", None),
    (SAP, "slide", "sap.slide", "core.sap", None),
    (SAP, "topk", "sap.topk", "core.sap", None),
    (SAP, "_ingest", "sap.ingest", "core.sap", None),
    (SAP, "_expire", "sap.expire", "core.sap", None),
    (SAP, "_finalize", "sap.finalize", "core.sap", None),
    (SAP, "_ensure_front_ready", "sap.front_ready", "core.sap", None),
    (SAP, "_form_meaningful", "sap.mform", "core.sap", None),
    (SAP, "_maybe_deep_scan", "sap.deep_scan", "core.sap", None),
    (SAP, "_wrt_improper", "wrt.test", "core.wrt", _truthy),
    (CandidateSet, "merge_topk", "candidates.merge", "core.candidates",
     lambda r: r[1]),
    (CandidateSet, "rho", "candidates.rho", "core.candidates", None),
    (CandidateSet, "kth_highest_excluding", "candidates.ftheta",
     "core.candidates", None),
    (SAVL, "offer", "savl.offer", "core.savl", _falsy),
    (MeaningfulSet, "pop_max", "savl.pop_max", "core.savl",
     lambda r: r is not None),
    (TBUITracker, "ingest", "tbui.ingest", "core.tbui", None),
    (MinTopK, "warmup", "mintopk.warmup", "baselines.mintopk", None),
    (MinTopK, "slide", "mintopk.slide", "baselines.mintopk", None),
    (MinTopK, "topk", "mintopk.topk", "baselines.mintopk", None),
    (MinTopK, "_ingest", "mintopk.ingest", "baselines.mintopk", None),
    (MinTopK, "_expire", "mintopk.expire", "baselines.mintopk", None),
    (SortedStore, "insert", "store.insert", "core.sorted_store", None),
    (SortedStore, "remove_at", "store.remove", "core.sorted_store", None),
    (SortedStore, "dominate_prefix", "store.dominate", "core.sorted_store",
     lambda r: r),
    (IncrementalDriver, "feed", "driver.feed", "streams.incremental", len),
)

LAYER_OF = {name: layer for _, _, name, layer, _ in HOOKS}

#: Every layer a self time is reported for; explicit spans whose name
#: starts with ``state.`` belong to the streaming operator's state cycle.
LAYERS = (
    "core.sap",
    "core.candidates",
    "core.savl",
    "core.wrt",
    "core.tbui",
    "core.sorted_store",
    "baselines.mintopk",
    "streams.incremental",
    "spark.streaming_op",
)


def originals() -> dict[tuple[type, str], object]:
    """The functions currently bound at every hook point."""
    return {(cls, attr): getattr(cls, attr) for cls, attr, *_ in HOOKS}


class Tracer:
    """Installs timing wrappers and records spans; restores on exit."""

    def __init__(self) -> None:
        # hook name -> [inclusive_s, self_s, calls, tally]
        self.stats: dict[str, list[float]] = {
            name: [0.0, 0.0, 0, 0] for _, _, name, _, _ in HOOKS
        }
        self._stack: list[list[float]] = []  # child time of active hooks
        self._saved: list[tuple[type, str, object, bool]] = []
        self.spans: list[dict] = []
        self._open: list[int] = []  # indices of open spans

    # ---------------------------------------------------------- wrappers
    def _wrap(self, fn, name: str, tally: Callable | None):
        rec = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                rec[0] += d
                rec[1] += d - frame[0]
                rec[2] += 1
                if stack:
                    stack[-1][0] += d
            if tally is not None:
                rec[3] += tally(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Replace every hook point with a timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for cls, attr, name, _, tally in HOOKS:
            own = attr in cls.__dict__
            fn = getattr(cls, attr)
            self._saved.append((cls, attr, cls.__dict__.get(attr), own))
            setattr(cls, attr, self._wrap(fn, name, tally))

    def uninstall(self) -> None:
        """Restore the original functions (a no-op when not installed)."""
        for cls, attr, orig, own in reversed(self._saved):
            if own:
                setattr(cls, attr, orig)
            else:
                delattr(cls, attr)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- spans
    def _snapshot(self) -> dict[str, tuple[float, ...]]:
        return {k: tuple(v) for k, v in self.stats.items()}

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Record an explicit span; nested spans name it as parent.

        On close the span stores, per hook that ran inside it, the
        inclusive seconds, self seconds, calls and tally spent there.
        """
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        before = self._snapshot()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            hooks = {}
            for k, now in self._snapshot().items():
                was = before[k]
                if now[2] != was[2]:
                    hooks[k] = [b - a for a, b in zip(was, now)]
            if hooks:
                rec["hooks"] = hooks

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add a span measured elsewhere (e.g. by Spark) under the open span."""
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
                "start": start,
                "end": end,
                **attrs,
            }
        )

    def hooks_in(self, name: str) -> dict[str, list[float]]:
        """Per-hook [incl_s, self_s, calls, tally] inside span ``name``."""
        for s in self.spans:
            if s["name"] == name:
                got = s.get("hooks", {})
                return {k: got.get(k, [0.0, 0.0, 0, 0]) for k in self.stats}
        raise KeyError(f"no span named {name!r}")

    def layer_self_seconds(self) -> dict[str, float]:
        """Self seconds per layer (hooks plus ``state.*`` spans)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, self_s, _, _) in self.stats.items():
            out[LAYER_OF[name]] += self_s
        out["spark.streaming_op"] += sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] in ("state.loads", "state.dumps")
        )
        return out

    def dump(self, path: Path, meta: dict) -> None:
        """Write spans and hook statistics as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "hooks": {
                k: {"incl_s": v[0], "self_s": v[1], "calls": v[2], "tally": v[3]}
                for k, v in self.stats.items()
            },
            "layers_self_s": self.layer_self_seconds(),
            "spans": self.spans,
        }
        with gzip.open(path, "wt") as f:
            json.dump(doc, f)
