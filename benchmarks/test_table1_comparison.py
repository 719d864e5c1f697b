"""Table I — BSP vs FedAvg vs SSP vs SelSync on the paper's workloads.

For every method the benchmark reports the Table-I columns: iterations run,
LSSR, best accuracy/perplexity, convergence difference vs BSP, whether it
outperforms BSP, and the overall (simulated wall-clock) speedup over BSP.
The method grids and workload lists live in the ``table1-comparison`` /
``table1-comparison-full`` entries of the scenario registry.

By default only the ResNet101 workload is exercised so the benchmark stays
CPU-friendly; set ``REPRO_FULL=1`` to run the full-scale scenario (all four
workloads, the paper's full method grid).
"""

import pytest

from benchmarks._helpers import full_scale, save_report

from repro.scenarios import run_scenario


def _experiment():
    if full_scale():
        return run_scenario("table1-comparison-full")
    return run_scenario("table1-comparison")


@pytest.mark.benchmark(group="table1")
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_table1_method_comparison(benchmark):
    report = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_report("table1_comparison", report.table())

    for workload in report.meta["workloads"]:
        bsp = report.results[f"{workload}/bsp"]
        sel_03 = report.results[f"{workload}/selsync(0.3)"]
        sel_05 = report.results[f"{workload}/selsync(0.5)"]
        higher = bsp.higher_is_better

        def at_least_bsp(result, slack):
            if higher:
                return result.best_metric >= bsp.best_metric - slack
            return result.best_metric <= bsp.best_metric * (1 + slack)

        # SelSync reaches BSP-level quality with substantial communication
        # savings and a wall-clock speedup over BSP.
        for sel in (sel_03, sel_05):
            assert at_least_bsp(sel, 0.03)
            assert sel.lssr > 0.2
            assert sel.speedup_over(bsp) > 1.0
        # BSP performs the most work per step, so it never needs more
        # iterations than the semi-synchronous methods here.
        all_results = [
            report.results[f"{workload}/{label}"] for label in report.meta["methods"]
        ]
        assert bsp.iterations <= max(r.iterations for r in all_results)
