"""The ``spark`` workload: the batch and Structured Streaming operators.

The benchmark starts its own local SparkSession with a fixed conf (it
inherits nothing from the test fixtures), points Spark's scratch space
and the Python workers' temp dir into the run's work directory, and puts
the checkout's ``src/`` on the workers' ``PYTHONPATH`` before the JVM
starts, so the workers can import ``repro``.

Set-up (reported as ``setup_s``) is everything a user pays once: the
session start, stream generation, parquet writing, the first batch job
and the streaming query up to the end of its first micro-batch. The
timed part is the warm batch jobs and the warm micro-batches.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pandas as pd

from coreload import SAP_ALGO, Stream, Tally, chunk_bounds, clock, rows_mismatches
from repro.core.query import TopKQuery

#: warm batch jobs before and again after the streaming query; their
#: median spreads the sample over most of the run, since the host's
#: speed drifts over tens of seconds
WARM_BATCH_JOBS = 2
QUERY_NAME = "perfbench_stream"
DRIVER_MEMORY = "2g"


def spark_cores() -> int:
    """Local cores for Spark: all the machine has, at most 4."""
    return max(1, min(4, os.cpu_count() or 1))


def start_session(src: Path, workdir: Path):
    """Start a local SparkSession with the benchmark's fixed conf."""
    cores = spark_cores()
    tmp = workdir / "tmp"
    local = workdir / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' pyspark-shell"
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{cores}]")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(workdir / "warehouse"))
        .config("spark.local.dir", str(local))
        .getOrCreate()
    )


def stop_session(spark) -> None:
    """Stop the session and the JVM behind it, and wait for the JVM."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def session_info(spark) -> dict:
    """The conf actually in force, read back from the running session."""
    conf = spark.conf
    return {
        "master": spark.sparkContext.master,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "arrow": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "aqe_coalesce": conf.get("spark.sql.adaptive.coalescePartitions.enabled"),
        "driver_memory": DRIVER_MEMORY,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
        "spark": spark.version,
    }


def frame(streams: list[Stream], a: int, b: int) -> pd.DataFrame:
    """Rows ``[a, b)`` of every stream as ``(stream_id, t, score)``."""
    return pd.DataFrame(
        {
            "stream_id": np.concatenate(
                [np.full(b - a, st.sid, dtype=np.int64) for st in streams]
            ),
            "t": np.concatenate([np.arange(a, b, dtype=np.int64)] * len(streams)),
            "score": np.concatenate([st.scores[a:b] for st in streams]),
        }
    )


def check_frame(res: pd.DataFrame, streams: list[Stream], k: int, tally: Tally) -> None:
    """Compare an operator's output rows with each key's reference."""
    res = res.sort_values(["stream_id", "window_id", "rank"])
    for st in streams:
        sub = res[res["stream_id"] == st.sid]
        cols = [sub[c].to_numpy() for c in ("window_id", "rank", "t", "score")]
        tally.add(len(st.ref), rows_mismatches(*cols, st, k))


def progress_start(p: dict) -> float:
    """Epoch seconds at which a micro-batch's trigger started."""
    return datetime.fromisoformat(p["timestamp"].replace("Z", "+00:00")).timestamp()


def run_spark(
    streams: list[Stream],
    q: TopKQuery,
    chunks: int,
    src: Path,
    workdir: Path,
    tally: Tally,
) -> dict:
    """Run the batch and streaming operators; return timings and progress."""
    from pyspark.sql.types import DoubleType, LongType, StructField, StructType

    from repro.spark.operator import continuous_topk_operator
    from repro.spark.streaming_op import continuous_topk_streaming

    schema = StructType(
        [
            StructField("stream_id", LongType()),
            StructField("t", LongType()),
            StructField("score", DoubleType()),
        ]
    )
    length = len(streams[0].scores)
    setup: dict[str, float] = {}
    t0 = clock()
    spark = start_session(src, workdir)
    try:
        setup["session_s"] = clock() - t0
        spark.sparkContext.setLogLevel("ERROR")
        info = session_info(spark)

        t0 = clock()
        indir = workdir / "in"
        indir.mkdir(parents=True)
        base = time.time() - chunks - 60
        for c, (a, b) in enumerate(chunk_bounds(length, chunks)):
            path = indir / f"chunk-{c:04d}.parquet"
            frame(streams, a, b).to_parquet(path, index=False)
            # strictly increasing mtimes fix the file source's order
            os.utime(path, (base + c, base + c))
        setup["parquet_s"] = clock() - t0

        t0 = clock()
        df = spark.createDataFrame(frame(streams, 0, length), schema=schema)

        def batch_job() -> pd.DataFrame:
            return continuous_topk_operator(df, q, algo=SAP_ALGO).toPandas()

        res = batch_job()
        setup["first_batch_job_s"] = clock() - t0
        check_frame(res, streams, q.k, tally)

        job_s = []

        def warm_batch_jobs() -> None:
            for _ in range(WARM_BATCH_JOBS):
                t0 = clock()
                res = batch_job()
                job_s.append(clock() - t0)
                check_frame(res, streams, q.k, tally)

        warm_batch_jobs()

        sdf = (
            spark.readStream.schema(schema)
            .option("maxFilesPerTrigger", 1)
            .parquet(str(indir))
        )
        started = time.time()
        query = (
            continuous_topk_streaming(sdf, q, algo=SAP_ALGO)
            .writeStream.format("memory")
            .queryName(QUERY_NAME)
            .outputMode("append")
            .option("checkpointLocation", str(workdir / "ckpt"))
            .trigger(availableNow=True)
            .start()
        )
        query.awaitTermination(150)
        if query.isActive:
            query.stop()
            raise RuntimeError("streaming query did not finish in 150 s")
        if query.exception() is not None:
            raise RuntimeError(f"streaming query failed: {query.exception()}")
        progress = [json.loads(p.json) for p in query.recentProgress]
        progress = sorted(
            (p for p in progress if p["numInputRows"] > 0),
            key=lambda p: p["batchId"],
        )
        first = progress[0]
        first_end = progress_start(first) + first["durationMs"]["triggerExecution"] / 1e3
        setup["first_micro_batch_s"] = first_end - started
        check_frame(spark.table(QUERY_NAME).toPandas(), streams, q.k, tally)
        missing = chunks - len(progress)
        if missing:
            tally.add(missing, missing)  # micro-batches that never ran

        warm_batch_jobs()
    finally:
        stop_session(spark)

    warm = progress[1:]
    last = warm[-1]
    trig = [p["durationMs"]["triggerExecution"] for p in warm]
    wall = progress_start(last) + last["durationMs"]["triggerExecution"] / 1e3 - progress_start(warm[0])
    rows = sum(p["numInputRows"] for p in warm)
    _, _, q75 = statistics.quantiles(trig, n=4, method="inclusive")
    return {
        "info": info,
        "setup": setup,
        "batch_job_s": job_s,
        "progress": progress,
        "metrics": {
            "batch.job_s": statistics.median(job_s),
            "stream.batch_p50_ms": statistics.median(trig),
            "stream.batch_p75_ms": q75,
            "stream.rows_per_s": rows / wall,
            "stream.state_bytes": last["stateOperators"][0]["memoryUsedBytes"],
        },
        "samples": {
            "batch.job_s": len(job_s),
            "stream.batch_p50_ms": len(trig),
            "stream.batch_p75_ms": len(trig),
        },
    }


def engine_layers(progress: list[dict]) -> dict[str, float]:
    """Per-micro-batch engine phases (medians over warm batches)."""
    warm = progress[1:]

    def med(get) -> float:
        return float(statistics.median(get(p) for p in warm))

    dur = lambda key: (lambda p: p["durationMs"].get(key, 0))  # noqa: E731
    op = lambda key: (lambda p: p["stateOperators"][0].get(key, 0))  # noqa: E731
    return {
        "stream.addBatch_ms": med(dur("addBatch")),
        "stream.queryPlanning_ms": med(dur("queryPlanning")),
        "stream.walCommit_ms": med(dur("walCommit")),
        "stream.commitOffsets_ms": med(dur("commitOffsets")),
        "stream.latestOffset_ms": med(dur("latestOffset")),
        "stream.getBatch_ms": med(dur("getBatch")),
        "state.updates_ms": med(op("allUpdatesTimeMs")),
        "state.commit_ms": med(op("commitTimeMs")),
        "stream.micro_batches": len(warm),
        "stream.input_rows": sum(p["numInputRows"] for p in warm),
    }
