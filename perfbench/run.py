#!/usr/bin/env python3
"""Layered benchmark for the SAP core and the Spark operators.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload regular --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``regular``   — ⟨n=2400, k=25, s=2⟩, L=24,000, STOCK/TIMEU/TIMER;
* ``highspeed`` — ⟨n=30000, k=50, s=600⟩, L=60,000, same datasets;
* ``spark``     — 4 keyed streams of 24,000 under ⟨2400, 25, 2⟩ through
  the batch and Structured Streaming operators.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps the layer entry points and
reports the per-layer metrics. Every output is checked against a
reference outside the timed regions. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Details, spans and the environment go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 25


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a query cell, its streams and its mix."""

    regime: str  # grids preset regime: "regular" or "high"
    keys: tuple[tuple[str, int], ...]  # (dataset, seed offset) per stream
    reps: int  # passes of SAP, batch path and replay per round (MinTopK: 1)
    chunks: int  # micro-batches per stream (replay and Spark)
    spark: bool
    # seed sets: the keys again at seed + 1000·i, i < seed_sets. Highspeed
    # has 51 windows per stream, so one set's figures follow its data
    # more than the program; more sets average the data out
    seed_sets: int = 1
    op_sets: int = 1  # seed sets the batch path and the replay run on

    def cell(self, tiny: bool):
        """(query, stream length) — the paper cell, or a tiny one for tests."""
        from repro.core.query import TopKQuery
        from repro.harness.grids import spec_for

        spec = spec_for("small" if tiny else "bench", self.regime)
        return TopKQuery(spec.n_default, spec.k_default, spec.s_default), spec.length


CORE_KEYS = (("STOCK", 0), ("TIMEU", 0), ("TIMER", 0))
WORKLOADS = {
    "regular": Workload("regular", CORE_KEYS, reps=3, chunks=48, spark=False),
    "highspeed": Workload(
        "high", CORE_KEYS, reps=1, chunks=48, spark=False, seed_sets=24,
        op_sets=6,
    ),
    "spark": Workload(
        "regular", CORE_KEYS + (("STOCK", 1),), reps=3, chunks=41, spark=True
    ),
}

ENGINE_MS = (
    "stream.addBatch_ms",
    "stream.queryPlanning_ms",
    "stream.walCommit_ms",
    "stream.commitOffsets_ms",
    "stream.latestOffset_ms",
    "stream.getBatch_ms",
    "state.updates_ms",
    "state.commit_ms",
)
ENGINE_COUNTS = ("stream.micro_batches", "stream.input_rows")

END_TO_END_UNITS = {
    "sap.arrivals_per_s": "1/s",
    "sap.window_p50_us": "us",
    "sap.window_p99_us": "us",
    "mintopk.arrivals_per_s": "1/s",
    "batch.job_s": "s",
    "stream.batch_p50_ms": "ms",
    "stream.batch_p75_ms": "ms",
    "stream.rows_per_s": "1/s",
    "stream.state_bytes": "bytes",
    "setup_s": "s",
}


# ---------------------------------------------------------------- environment
def git_revision() -> str:
    """HEAD of the checkout, or a note when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def java_version() -> str:
    """First line of ``java -version`` (the JVM Spark would start)."""
    try:
        out = subprocess.run(
            ["java", "-version"], capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = (out.stderr or out.stdout).strip().splitlines()
    return lines[0] if lines else "unavailable"


def environment(seed: int, spark_info: dict | None) -> dict:
    import pyspark

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": pyspark.__version__,
        "java": spark_info["java"] if spark_info else java_version(),
        "spark_conf": spark_info,
        "git_revision": git_revision(),
    }


# ------------------------------------------------------------------- helpers
def sum_metrics(ms) -> dict[str, int]:
    keys = ("partitions_sealed", "m_formations", "units_skipped", "examined")
    ms = list(ms)
    return {k: sum(getattr(m, k) for m in ms) for k in keys}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------------- run
def run(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; return the final result plus the report details."""
    from coreload import BASELINE_ALGO, SAP_ALGO, Speed, Stream, Tally, clock
    from repro.core.naive import all_windows_topk
    from repro.streams.datasets import gen_stream
    from repro.streams.runner import make_algorithm, run_stream

    wl = WORKLOADS[workload]
    q, length = wl.cell(tiny)
    chunks = 6 if tiny else wl.chunks
    workdir = OUT / f"work-{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    speed = Speed()

    # set-up, repeated: generate the streams, build and attach algorithms
    setup_samples, setup_probes = [], []
    for _ in range(SETUP_REPS):
        setup_probes.append(speed.probe())
        t0 = clock()
        streams = [
            Stream(sid, ds, seed + off, gen_stream(ds, length, seed + off))
            for sid, (ds, off) in enumerate(wl.keys)
        ]
        for st in streams:
            for algo in (SAP_ALGO, BASELINE_ALGO):
                make_algorithm(algo, q).attach(st.scores)
        setup_samples.append(clock() - t0)
    gen_s = float(np.median(speed.scale(np.array(setup_samples), np.array(setup_probes))))

    sets = [streams] + [
        [
            Stream(len(wl.keys) * i + sid, ds, s, gen_stream(ds, length, s))
            for sid, (ds, off) in enumerate(wl.keys)
            for s in [seed + off + 1000 * i]
        ]
        for i in range(1, 1 if trace else wl.seed_sets)  # traced: first set
    ]

    # references (outside every timed region)
    for st in (st for group in sets for st in group):
        if wl.spark:
            st.ref = np.stack(run_stream(SAP_ALGO, st.scores, q).results)
        else:
            st.ref = np.stack(all_windows_topk(st.scores, q))

    details: dict = {"samples": {}, "setup": {"generate_attach_s": gen_s}}
    gc.collect()
    if trace:
        m, tr = traced(streams, q, chunks, speed, tally, details)
    else:
        m = timed(wl, sets, q, chunks, seconds, speed, tally, details)
        m["setup_s"] = (gen_s, "s")

    sp = None
    if wl.spark:
        from sparkload import engine_layers, progress_start, run_spark

        try:
            sp = run_spark(streams, q, chunks, SRC, workdir, tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        details["setup"].update(sp["setup"])
        if trace:
            engine = engine_layers(sp["progress"])
            for p in sp["progress"]:  # engine phases, on the epoch clock
                t0 = progress_start(p)
                tr.record(
                    "micro_batch", t0, t0 + p["durationMs"]["triggerExecution"] / 1e3,
                    parent=0, clock="epoch", batch=p["batchId"], durationMs=p["durationMs"],
                    stateOperators=p["stateOperators"],
                )
        else:
            m.update({k: (v, END_TO_END_UNITS[k]) for k, v in sp["metrics"].items()})
            m["setup_s"] = (gen_s + sum(sp["setup"].values()), "s")
            details["samples"].update(sp["samples"])
            details["warm_batch_jobs_s"] = sp["batch_job_s"]
    elif trace:  # no Spark engine runs on the core workloads
        engine = dict.fromkeys(ENGINE_MS, 0.0) | dict.fromkeys(ENGINE_COUNTS, 0)
    if trace:
        for k, v in engine.items():
            m[k] = (v, "count" if k in ENGINE_COUNTS else "ms")
        tr.dump(
            OUT / f"trace-{workload}-seed{seed}.json.gz",
            {"workload": workload, "seed": seed, "n": q.n, "k": q.k, "s": q.s},
        )

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }
    details["environment"] = environment(seed, sp["info"] if sp else None)
    details["error_rate"] = ratio(tally.failed, tally.attempted)
    details["workload"] = workload
    details["trace"] = int(trace)
    return {"final": result, "details": details}


def timed(wl, sets, q, chunks, seconds, speed, tally, details) -> dict:
    """The untraced run: rounds of the in-process paths, then per-unit medians.

    A round repeats while another round as long as the last one would
    end within ``seconds`` (at least one round runs). Every unit is
    scaled to the reference host speed, and each unit's repetitions are
    combined by their median. MinTopK, the slowest path, runs once per
    round and on the first seed set only; the batch path and the replay
    run on the first ``wl.op_sets`` sets. Figures over several seed sets
    are per set: a sum over one set's streams, averaged over the sets.
    """
    from coreload import (
        BASELINE_ALGO,
        SAP_ALGO,
        ReplayStats,
        batch_path,
        checked_drive,
        clock,
        replay,
        unit_median,
    )

    units: dict[tuple[str, int], list] = {}  # (path, sid) -> [(unit_s, probe_s)]

    def keep(path: str, sid: int, unit_s, probe_s) -> None:
        units.setdefault((path, sid), []).append((unit_s, probe_s))

    replays: dict[int, ReplayStats] = {}  # seed set -> its last replay
    start = clock()
    rounds = 0
    while True:
        for i in range(wl.reps):
            for si, group in enumerate(sets):
                for st in group:
                    p = checked_drive(SAP_ALGO, st, q, speed, tally)
                    if p is not None:
                        keep(SAP_ALGO, st.sid, p.unit_s, p.probe_s)
                    if i == 0 and si == 0:
                        p = checked_drive(BASELINE_ALGO, st, q, speed, tally)
                        if p is not None:
                            keep(BASELINE_ALGO, st.sid, p.unit_s, p.probe_s)
                if wl.spark or si >= wl.op_sets:
                    continue
                for st in group:
                    r = batch_path(st, q, speed, tally)
                    if r is not None:
                        keep("batch", st.sid, r[0], r[1])
                rs = replays[si] = replay(group, q, chunks, speed, tally)
                keep("replay", si, rs.cycle_s, rs.probe_s)
        rounds += 1
        elapsed = clock() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break

    def typical(path: str, sid: int) -> np.ndarray:
        return unit_median([speed.scale(u, p) for u, p in units[(path, sid)]])

    every = [st for group in sets for st in group]
    sap = [typical(SAP_ALGO, st.sid) for st in every]
    base_s = sum(typical(BASELINE_ALGO, st.sid).sum() for st in sets[0])
    # window latencies (j >= 1) per dataset; the percentiles are the
    # geometric mean over datasets, so no one dataset's tail sets them
    lat_us: dict[str, list] = {}
    for st, u in zip(every, sap):
        lat_us.setdefault(st.dataset, []).append(u[2:] * 1e6)
    lat_us = {ds: np.concatenate(v) for ds, v in lat_us.items()}

    def pct(p: float) -> float:
        return float(np.exp(np.mean([np.log(np.percentile(v, p)) for v in lat_us.values()])))

    m = {
        "sap.arrivals_per_s": sum(len(st.scores) for st in every)
        / sum(u.sum() for u in sap),
        "sap.window_p50_us": pct(50),
        "sap.window_p99_us": pct(99),
        "mintopk.arrivals_per_s": sum(len(st.scores) for st in sets[0]) / base_s,
    }
    details["rounds"] = rounds
    samples = details["samples"]
    samples["sap.window_p50_us"] = samples["sap.window_p99_us"] = {
        ds: len(v) for ds, v in lat_us.items()
    }
    if not wl.spark:
        # per-chunk cycle over all keys of a set, warm chunks, every set
        chunk_s = np.concatenate(
            [typical("replay", si).sum(axis=1)[1:] for si in replays]
        )
        rows = sum(sum(rs.chunk_rows[1:]) for rs in replays.values())
        _, _, q75 = statistics.quantiles(chunk_s, n=4, method="inclusive")
        m |= {
            "batch.job_s": sum(
                typical("batch", st.sid).sum() for si in replays for st in sets[si]
            ) / len(replays),
            "stream.batch_p50_ms": float(np.median(chunk_s)) * 1e3,
            "stream.batch_p75_ms": q75 * 1e3,
            "stream.rows_per_s": rows / chunk_s.sum(),
            "stream.state_bytes": float(
                np.mean([rs.blob_bytes[-1] for rs in replays.values()])
            ),
        }
        samples["stream.batch_p50_ms"] = samples["stream.batch_p75_ms"] = len(chunk_s)
        samples["batch.job_s"] = samples["stream.state_bytes"] = len(replays)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in m.items()}


def traced(streams, q, chunks, speed, tally, details):
    """The traced run: per-layer metrics from wrapped entry points."""
    from coreload import (
        BASELINE_ALGO,
        SAP_ALGO,
        batch_path,
        checked_drive,
        replay,
    )
    from tracer import LAYER_OF, LAYERS, Tracer

    arrivals = sum(len(st.scores) for st in streams)
    # untraced reference pass for the overhead figure
    plain = [checked_drive(SAP_ALGO, st, q, speed, tally) for st in streams]
    tracer = Tracer()
    with tracer, tracer.span("workload"):
        with tracer.span("sap_runs"):
            sap = [checked_drive(SAP_ALGO, st, q, speed, tally, tracer) for st in streams]
        with tracer.span("mintopk_runs"):
            base = [
                checked_drive(BASELINE_ALGO, st, q, speed, tally, tracer) for st in streams
            ]
        with tracer.span("batch_path"):
            feeds = [batch_path(st, q, speed, tally) for st in streams]
        with tracer.span("replay"):
            rs = replay(streams, q, chunks, speed, tally, tracer)
    sap, base, plain = ([p for p in ps if p] for ps in (sap, base, plain))
    buf_max = max(r[2] for r in feeds if r)

    S = tracer.hooks_in("sap_runs")
    M = tracer.hooks_in("mintopk_runs")
    B = tracer.hooks_in("batch_path")
    counts = sum_metrics(p.metrics for p in sap)
    cand = [c for p in sap for c in p.candidates]
    base_cand = [c for p in base for c in p.candidates]
    peak = max(cand)
    bound = q.k * math.sqrt(q.n / max(q.s, q.k))
    traced_aps = arrivals / sum(speed.scale(p.unit_s, p.probe_s).sum() for p in sap)
    plain_aps = arrivals / sum(speed.scale(p.unit_s, p.probe_s).sum() for p in plain)

    m: dict[str, tuple[float, str]] = {
        "sap.warmup_s": (S["sap.warmup"][0], "s"),
        "sap.slide_s": (S["sap.slide"][0], "s"),
        "sap.topk_s": (S["sap.topk"][0], "s"),
        "sap.topk_calls": (S["sap.topk"][2], "count"),
        "sap.ingest_s": (S["sap.ingest"][0], "s"),
        "sap.ingest_calls": (S["sap.ingest"][2], "count"),
        "sap.expire_s": (S["sap.expire"][0], "s"),
        "sap.expire_calls": (S["sap.expire"][2], "count"),
        "sap.finalize_s": (S["sap.finalize"][0], "s"),
        "sap.partitions_sealed": (counts["partitions_sealed"], "count"),
        "sap.front_ready_s": (S["sap.front_ready"][0], "s"),
        "sap.mform_s": (S["sap.mform"][0], "s"),
        "sap.m_formations": (counts["m_formations"], "count"),
        "sap.deep_scan_s": (S["sap.deep_scan"][0], "s"),
        "sap.units_skipped": (counts["units_skipped"], "count"),
        "sap.examined": (counts["examined"], "count"),
        "candidates.merge_s": (S["candidates.merge"][0], "s"),
        "candidates.merge_calls": (S["candidates.merge"][2], "count"),
        "candidates.refined": (S["candidates.merge"][3], "count"),
        "candidates.rho_s": (S["candidates.rho"][0], "s"),
        "candidates.ftheta_s": (S["candidates.ftheta"][0], "s"),
        "candidates.ftheta_calls": (S["candidates.ftheta"][2], "count"),
        "candidates.avg": (sum(cand) / len(cand), "count"),
        "candidates.peak": (peak, "count"),
        "candidates.bound_ratio": (peak / bound, "ratio"),
        "savl.offered": (S["savl.offer"][2], "count"),
        "savl.pruned": (S["savl.offer"][3], "count"),
        "savl.prune_ratio": (ratio(S["savl.offer"][3], S["savl.offer"][2]), "ratio"),
        "savl.pop_max_s": (S["savl.pop_max"][0], "s"),
        "savl.pop_max_calls": (S["savl.pop_max"][2], "count"),
        "savl.promoted_ratio": (
            ratio(S["savl.pop_max"][3], S["savl.pop_max"][2]), "ratio"),
        "wrt.tests": (S["wrt.test"][2], "count"),
        "wrt.s": (S["wrt.test"][0], "s"),
        "wrt.improper_ratio": (ratio(S["wrt.test"][3], S["wrt.test"][2]), "ratio"),
        "tbui.ingest_s": (S["tbui.ingest"][0], "s"),
        "tbui.ingest_calls": (S["tbui.ingest"][2], "count"),
        "store.insert_s": (M["store.insert"][0], "s"),
        "store.insert_calls": (M["store.insert"][2], "count"),
        "store.remove_s": (M["store.remove"][0], "s"),
        "store.remove_calls": (M["store.remove"][2], "count"),
        "store.dominate_s": (M["store.dominate"][0], "s"),
        "store.evicted": (M["store.dominate"][3], "count"),
        "mintopk.slide_s": (M["mintopk.slide"][0], "s"),
        "mintopk.topk_s": (M["mintopk.topk"][0], "s"),
        "mintopk.candidates_avg": (
            sum(base_cand) / len(base_cand), "count"),
        "driver.feed_s": (B["driver.feed"][0], "s"),
        "driver.feed_calls": (B["driver.feed"][2], "count"),
        "driver.emit_rows": (B["driver.feed"][3], "count"),
        "driver.buffer_len_max": (buf_max, "count"),
        "state.blob_bytes_first": (rs.blob_bytes[0], "bytes"),
        "state.blob_bytes_last": (rs.blob_bytes[-1], "bytes"),
        "state.dumps_s": (rs.dumps_s, "s"),
        "state.loads_s": (rs.loads_s, "s"),
        "state.pending_max": (rs.pending_max, "count"),
    }
    for layer, sec in tracer.layer_self_seconds().items():
        m[f"{layer}.self_s"] = (sec, "s")
    m["trace.sap_arrivals_per_s"] = (traced_aps, "1/s")
    m["trace.overhead_ratio"] = (plain_aps / traced_aps, "ratio")

    # per-phase self-time split, for the report and the trace file
    split = {}
    for phase in ("sap_runs", "mintopk_runs", "batch_path", "replay"):
        per = dict.fromkeys(LAYERS, 0.0)
        for hook, v in tracer.hooks_in(phase).items():
            per[LAYER_OF[hook]] += v[1]
        split[phase] = {k: v for k, v in per.items() if v}
    split["sap_runs_hooks_self_s"] = {k: v[1] for k, v in S.items() if v[2]}
    split["mintopk_runs_hooks_self_s"] = {k: v[1] for k, v in M.items() if v[2]}
    details["layer_split"] = split
    details["untraced_sap_arrivals_per_s"] = plain_aps
    return m, tracer


# ------------------------------------------------------------------- report
def report(out: dict) -> None:
    """Human-readable lines: every metric by name and unit, then details."""
    final, det = out["final"], out["details"]
    print(f"# perfbench workload={det['workload']} trace={det['trace']}")
    print("# environment " + json.dumps(det["environment"], sort_keys=True))
    for name, mv in final["metrics"].items():
        n = det["samples"].get(name)
        extra = f"  (samples={n})" if n is not None else ""
        print(f"{name:32s} {mv['value']:>18.6g} {mv['unit']}{extra}")
    print(
        f"{'error_rate':32s} {det['error_rate']:>18.6g} ratio"
        f"  ({final['failed']} of {final['attempted']} windows differ or failed)"
    )
    print("# setup " + json.dumps(det["setup"], sort_keys=True))
    if "layer_split" in det:
        print("# layer self-time split " + json.dumps(det["layer_split"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True))
    report(out)
    print(json.dumps(out["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
