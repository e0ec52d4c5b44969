"""Figure 5: deadline miss ratio vs gNumberOfMinislots.

Paper result: averaged over the sweep, CoEfficient misses 4.8 % (BER-7)
/ 3.2 % (BER-9) of messages; FSPEC 21.3 % / 19.5 %.

Shape asserted here: CoEfficient's miss ratio is lower at every sweep
point, FSPEC's worst point is at least 4x CoEfficient's average, and
both improve (weakly) as the dynamic segment grows.
"""

from benchmarks.conftest import pairs_by, print_counters, print_rows
from repro.experiments.figures import fig5_deadline_miss_ratio
from repro.obs.observability import Observability

_COLUMNS = ("minislots", "ber", "scheduler", "deadline_miss_ratio",
            "produced")


def test_fig5_deadline_miss_ratio(benchmark):
    obs = Observability()
    rows = benchmark.pedantic(
        fig5_deadline_miss_ratio,
        kwargs=dict(duration_ms=1000.0, obs=obs),
        rounds=1, iterations=1,
    )
    print_rows("Figure 5 -- deadline miss ratio vs minislots", rows,
               _COLUMNS,
               paper_note="CoEfficient 4.8/3.2 % vs FSPEC 21.3/19.5 % avg")
    # The same counters `--metrics-out` exports, next to the timings.
    print_counters("Figure 5", obs,
                   prefixes=("engine.", "slack.", "retransmission."))
    counters = obs.deterministic_snapshot()["counters"]
    assert counters["engine.cycles"] > 0
    assert counters["slack.table_queries"] > 0
    assert counters["retransmission.plan.budget_total"] >= 0
    pairs = pairs_by(rows, ("minislots", "ber"))
    for key, pair in pairs.items():
        assert pair["coefficient"]["deadline_miss_ratio"] <= \
            pair["fspec"]["deadline_miss_ratio"] + 1e-9, (
                f"{key}: CoEfficient misses more than FSPEC"
            )

    coefficient_rows = [r for r in rows if r["scheduler"] == "coefficient"]
    fspec_rows = [r for r in rows if r["scheduler"] == "fspec"]
    co_mean = sum(r["deadline_miss_ratio"] for r in coefficient_rows) \
        / len(coefficient_rows)
    fs_max = max(r["deadline_miss_ratio"] for r in fspec_rows)
    assert fs_max > max(4 * co_mean, 0.02), (
        f"FSPEC's worst miss ratio {fs_max:.3f} does not show the "
        f"paper's separation against CoEfficient's mean {co_mean:.3f}"
    )

    # Trend: more minislots help FSPEC (its only dynamic capacity).
    for ber in (1e-7, 1e-9):
        series = sorted(
            (r["minislots"], r["deadline_miss_ratio"])
            for r in fspec_rows if r["ber"] == ber
        )
        assert series[-1][1] <= series[0][1] + 1e-9, (
            f"FSPEC miss ratio did not improve with minislots at {ber}"
        )
