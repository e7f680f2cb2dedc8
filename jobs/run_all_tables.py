"""spark-submit entrypoint: reproduce every table + the shape summary.

Runs the three sweeps once each (Table 2's, the regular-speed one
feeding Tables 3/6/8, the high-speed one feeding Tables 5/7/9), writes
each sweep's raw frame to ``results/sweep_<name>.json`` and rewrites
EXPERIMENTS.md's table section with the rendered paper-vs-ours tables.
"""
import argparse
import pathlib

from common import get_spark

from repro.harness.tables import build_markdown, run_all_tables, splice_experiments

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "results"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument(
        "--preset",
        choices=["bench", "small"],
        default="bench",
        help="parameter grid size (bench = paper-scale grids)",
    )
    p.add_argument(
        "--serial",
        action="store_true",
        help="run cells serially in-process instead of via Spark",
    )
    args = p.parse_args()
    spark = None if args.serial else get_spark("all-tables")
    results = run_all_tables(spark, args.preset)
    RESULTS_DIR.mkdir(exist_ok=True)
    for name, df in results.items():
        df.to_json(RESULTS_DIR / f"sweep_{name}.json", orient="records", indent=1)
    md = build_markdown(results)
    EXPERIMENTS_MD.write_text(splice_experiments(EXPERIMENTS_MD.read_text(), md))
    print(md)
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
