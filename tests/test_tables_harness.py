"""Table harness tests: grids, cell builders, pivots, markdown, paper data."""
import pathlib

import pandas as pd
import pytest

from repro.harness import paper_numbers as paper
from repro.harness.grids import (
    ALL_DATASETS,
    HS_ALGOS,
    TABLE2_M_VALUES,
    TABLE2_VARIANTS,
    spec_for,
)
from repro.harness.tables import (
    SWEEPS,
    TABLE_DEFS,
    build_markdown,
    markdown_sweep_table,
    pivot_sweep,
    pivot_table2,
    regime_algos,
    run_all_tables,
    splice_experiments,
    sweep_cells,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_specs_valid():
    for preset in ("bench", "small"):
        for regime in ("regular", "high"):
            spec = spec_for(preset, regime)
            assert spec.n_default % spec.s_default == 0
            for axis, label, n, k, s in spec.axis_cells():
                assert n % s == 0, (axis, label)
                assert k <= n
    with pytest.raises(KeyError):
        spec_for("huge", "regular")


def test_cells_table2_structure():
    cells = sweep_cells("table2", "bench")
    assert len(cells) == len(ALL_DATASETS) * len(TABLE2_VARIANTS) * len(
        TABLE2_M_VALUES
    )
    assert all(c["axis"] == "m" for c in cells)


def test_cells_sweep_structure():
    assert regime_algos("high") == list(HS_ALGOS.values())
    for regime in ("regular", "high"):
        cells = sweep_cells(regime, "bench")
        spec = spec_for("bench", regime)
        assert len(cells) == len(ALL_DATASETS) * len(
            regime_algos(regime)
        ) * len(spec.axis_cells())
        assert len({c["cell_id"] for c in cells}) == len(cells)
    # the cell count EXPERIMENTS.md quotes: each sweep runs once
    assert sum(len(sweep_cells(name, "bench")) for name in SWEEPS) == 670


def test_paper_tables_shape():
    for name, tab in paper.PAPER_TABLES.items():
        if name == "table2":
            continue
        axes = paper.PAPER_AXES[name]
        for ds, algos in tab.items():
            assert ds in ALL_DATASETS
            for algo, series in algos.items():
                for axis, vals in series.items():
                    assert len(vals) == len(axes[axis]), (name, ds, algo, axis)


def test_table2_paper_shape():
    for ds, variants in paper.TABLE2.items():
        for variant, vals in variants.items():
            assert len(vals) == len(paper.TABLE2_M)


def test_table_defs_reference_known_metrics():
    from repro.core.metrics import METRIC_COLUMNS

    for name, d in TABLE_DEFS.items():
        assert name in paper.PAPER_TABLES
        assert d.regime in ("regular", "high")
        assert d.metric in METRIC_COLUMNS


@pytest.fixture(scope="module")
def tiny_results():
    return run_all_tables(spark=None, preset="small")


def test_run_all_tables_small(tiny_results):
    assert set(tiny_results) == {"table2", "regular", "high"}
    for df in tiny_results.values():
        assert isinstance(df, pd.DataFrame) and len(df) > 0
        assert (df["wall_time_s"] > 0).all()
    for regime in ("regular", "high"):
        key = tiny_results[regime][["dataset", "algo", "axis", "label"]]
        assert not key.duplicated().any(), regime
    for name, d in TABLE_DEFS.items():
        ran = set(tiny_results[d.regime]["algo"])
        assert set(d.algos.values()) <= ran, name


def test_pivot_table2(tiny_results):
    piv = pivot_table2(tiny_results["table2"])
    for ds in ALL_DATASETS:
        for variant in TABLE2_VARIANTS:
            labels, vals = piv[ds][variant]
            assert len(labels) == len(vals) > 0


def test_pivot_sweep_and_markdown(tiny_results):
    for name, d in TABLE_DEFS.items():
        piv = pivot_sweep(tiny_results[d.regime], d.algos, d.metric)
        md = markdown_sweep_table(name, piv)
        assert "paper" in md and "ours" in md


def test_build_markdown_complete(tiny_results):
    md = build_markdown(tiny_results)
    for t in ("Table 2", "Table 3", "Table 5", "Table 6", "Table 7",
              "Table 8", "Table 9", "Shape checks"):
        assert t in md


def test_build_markdown_matches_experiments():
    # golden: the committed sweep frames render EXPERIMENTS.md's table
    # section byte for byte
    frames = {
        name: pd.read_json(
            ROOT / "results" / f"sweep_{name}.json",
            orient="records",
            dtype={"label": str, "opts": str, "axis": str},
        )
        for name in SWEEPS
    }
    doc = (ROOT / "EXPERIMENTS.md").read_text()
    assert splice_experiments(doc, build_markdown(frames)) == doc


def test_run_cells_serial_matches_structure(tiny_results):
    # one small serial batch: columns complete
    from repro.spark.sweep import RESULT_SCHEMA

    cols = {f.name for f in RESULT_SCHEMA.fields}
    assert cols.issubset(set(tiny_results["high"].columns))
