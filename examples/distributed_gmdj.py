"""Distributed GMDJ evaluation.

The evaluation regime the paper points at beyond the single-node case:
**partitioned (parallel) evaluation** — split the detail relation into
fragments, evaluate each independently against a replicated base, and
merge the mergeable accumulator states.  Same total scan volume as a
single pass, so horizontal scale-out is "free" in data touched.

Run:  python examples/distributed_gmdj.py
"""

from repro import Database, agg, col, count_star, lit, md, scan
from repro.data import NetflowConfig, build_netflow_catalog
from repro.gmdj import evaluate_gmdj_partitioned, evaluate_plan, select_kernel
from repro.storage import collect


def build_plan():
    """Per-hour traffic profile: HTTP bytes, total bytes, flow count."""
    in_hour = (col("F.StartTime") >= col("H.StartInterval")) & (
        col("F.StartTime") < col("H.EndInterval")
    )
    return md(
        scan("Hours", "H"),
        scan("Flow", "F"),
        [[agg("sum", col("F.NumBytes"), "http_bytes")],
         [agg("sum", col("F.NumBytes"), "total_bytes"),
          count_star("flows")]],
        [in_hour & (col("F.Protocol") == lit("HTTP")), in_hour],
    )


def main() -> None:
    db = Database()
    catalog = build_netflow_catalog(
        NetflowConfig(flows=20000, hours=48, users=30, seed=17)
    )
    for name in catalog.table_names():
        db.register(name, catalog.table(name))
    print(f"Warehouse: {len(db.table('Flow'))} flows over "
          f"{len(db.table('Hours'))} hours\n")

    # Every scan runs on the numpy whole-array kernel.
    kernel = select_kernel("numpy")
    plan = build_plan()
    with collect() as single_stats:
        single = evaluate_plan(plan, db.catalog, kernel)

    print("Partitioned evaluation (simulated scale-out):")
    for partitions in (1, 2, 4, 8):
        with collect() as stats:
            result = evaluate_gmdj_partitioned(build_plan(), db.catalog,
                                               partitions, kernel=kernel)
        assert result.bag_equal(single)
        print(f"  {partitions} partition(s): tuples scanned "
              f"{stats.tuples_scanned:7d} (single-scan volume: "
              f"{single_stats.tuples_scanned})")
    print()

    print("Hourly profile (first 6 hours):")
    print(single.sorted_by("H.HourDescription").pretty(limit=6))


if __name__ == "__main__":
    main()
