"""The paper's seven evaluation tables, one benchmark per sweep.

Each test runs one sweep of :data:`repro.harness.tables.SWEEPS` over the
session SparkSession, times it once via ``benchmark.pedantic`` (a sweep
takes minutes — multi-round statistics would be wasteful and are not
what the tables are about), and checks the shape gates of every table
that sweep feeds. ``jobs/run_all_tables.py`` runs the same cells and
writes the results and EXPERIMENTS.md.
"""
import pandas as pd

from repro.harness.tables import run_cells, sweep_cells


def run_once(benchmark, sweep: str, spark) -> pd.DataFrame:
    """Run one sweep's cells exactly once under pytest-benchmark timing."""
    cells = sweep_cells(sweep, "bench")
    return benchmark.pedantic(
        lambda: run_cells(cells, spark), rounds=1, iterations=1, warmup_rounds=0
    )


def sap_and_mintopk(df: pd.DataFrame, metric: str) -> tuple[pd.Series, pd.Series]:
    """``metric`` of SAP and of MinTopK, indexed by cell."""
    sap = df[df["algo"] == "sap-enhanced"].set_index(
        ["dataset", "axis", "label"]
    )[metric]
    mtk = df[df["algo"] == "mintopk"].set_index(
        ["dataset", "axis", "label"]
    )[metric]
    return sap, mtk


def test_table2_sweep(benchmark, spark):
    """Table 2 — equal-partition running time vs m."""
    df = run_once(benchmark, "table2", spark)
    assert (df["wall_time_s"] > 0).all()


def test_regular_sweep(benchmark, spark):
    """Tables 3 (time), 6 (candidates) and 8 (memory), regular speed."""
    df = run_once(benchmark, "regular", spark)
    # Table 3
    assert (df["wall_time_s"] > 0).all()
    # Tables 6 and 8: SAP wins except where the paper itself says the
    # gap closes (s = 10%*n leaves "very limited space" — Appendix E)
    sap, mtk = sap_and_mintopk(df, "avg_candidates")
    assert (sap < mtk).mean() >= 0.9
    assert (sap <= mtk * 1.5).all()
    sap, mtk = sap_and_mintopk(df, "memory_kb")
    assert (sap < mtk).mean() >= 0.9
    assert (sap <= mtk * 1.5).all()


def test_high_sweep(benchmark, spark):
    """Tables 5 (time), 7 (candidates) and 9 (memory), high speed."""
    df = run_once(benchmark, "high", spark)
    # Table 5 headline shape: SAP faster than minTopK in the bulk of cells
    sap, mtk = sap_and_mintopk(df, "wall_time_s")
    assert (sap < mtk).mean() > 0.9
    # Table 7: as Tables 6/8, with the s = 10%*n cells closing the gap
    sap, mtk = sap_and_mintopk(df, "avg_candidates")
    assert (sap < mtk).mean() >= 0.75
    assert (sap <= mtk * 1.5).all()
    # Table 9
    sap, mtk = sap_and_mintopk(df, "memory_kb")
    assert (sap < mtk).mean() > 0.9
