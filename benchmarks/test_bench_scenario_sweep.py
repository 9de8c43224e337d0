"""P3 (performance): scenario-space sweeps vs per-scenario sensitivity loops.

The sweep planner's claim is that discovering options over a whole scenario
grid should not cost one sensitivity analysis per scenario.  This benchmark
drives :func:`repro.scenarios.bench.run_sweep_benchmark`: a three-axis
percentage grid (12×11×10 = 1 320 scenarios) over the deal-closing drivers,
scored once through the grid kernel
(:mod:`repro.scenarios.kernel`) and once as the seed-style Python loop of
per-scenario full forest traversals (what each
:func:`~repro.core.sensitivity.run_sensitivity` call cost before delta
evaluation).  Today's delta-evaluated ``run_sensitivity`` loop is timed too
and reported as ``sensitivity_speedup``, without a floor.

A second arm times the shape one process-pool worker scores on the
``sweep_stream`` workload: a 3×3×9 head-axis block over 2 000 rows, through
the grid kernel and through the same full-traversal loop, alternating
:data:`BLOCK_REPEATS` times.  Its axes are the use case's first three
drivers, which move ~84% of the ``(tree, row)`` pairs, so the block is close
to the grid kernel's worst case.  The median ratio is reported as
``block_speedup`` and gated by the bench-regression check against the
committed baseline.

Two properties are pinned:

* **bitwise equality** — every one of the 1 320 KPI values from the batched
  sweep equals the per-scenario sensitivity path exactly (the grid kernel
  takes identical tree decisions and gathers identical leaf payloads; it may
  not move a single ulp);
* **speedup ≥ 5×** — the batched sweep must beat the loop by at least 5×
  (measured ~6–7× on one core; the win is structural — boxes of the level
  grid traverse each tree once instead of once per scenario — so it does not
  depend on core count).

Timings are written to ``BENCH_scenario_sweep.json`` (path overridable via
``BENCH_SWEEP_OUTPUT``); the CI ``bench`` job uploads the file and the
bench-regression gate compares it against the committed baseline.
"""

from __future__ import annotations

import json
import os

from repro.scenarios.bench import run_block_benchmark, run_sweep_benchmark

from .conftest import print_table

USE_CASE = "deal_closing"
ROWS = 400
LEVELS = (12, 11, 10)
TOP_K = 10
BLOCK_ROWS = 2000
BLOCK_LEVELS = (3, 3, 9)
BLOCK_REPEATS = 3

#: Floor on the batched-vs-looped speedup.  The grid kernel's win comes from
#: work reduction (only the pairs the grid moves are traversed, once per box
#: of the level grid), not thread parallelism, so the floor holds on a
#: single core.
MIN_SPEEDUP = 5.0


def test_sweep_speedup_bitwise_equality_and_artifact():
    summary = run_sweep_benchmark(
        use_case=USE_CASE, rows=ROWS, levels=LEVELS, top_k=TOP_K, seed=0
    )
    summary["min_speedup_enforced"] = MIN_SPEEDUP
    summary.update(
        run_block_benchmark(
            use_case=USE_CASE, rows=BLOCK_ROWS, levels=BLOCK_LEVELS, repeats=BLOCK_REPEATS
        )
    )

    print_table(
        "Scenario sweep: grid kernel vs per-scenario sensitivity loop",
        [
            {
                "scenarios": summary["n_scenarios"],
                "rows": summary["rows"],
                "loop_s": round(summary["loop_s"], 3),
                "sensitivity_loop_s": round(summary["sensitivity_loop_s"], 3),
                "batched_s": round(summary["batched_s"], 3),
                "speedup": round(summary["speedup"], 2),
                "sensitivity_speedup": round(summary["sensitivity_speedup"], 2),
                "grid_kernel": summary["grid_kernel"],
                "bitwise": summary["bitwise_equal"],
            }
        ],
    )
    print_table(
        "Worker-sized block: grid kernel vs full-traversal loop",
        [
            {
                "rows": summary["block_rows"],
                "levels": "x".join(map(str, summary["block_levels"])),
                "loop_s": round(summary["block_loop_s"], 3),
                "kernel_s": round(summary["block_kernel_s"], 3),
                "block_speedup": round(summary["block_speedup"], 2),
            }
        ],
    )

    # correctness first: the sweep may not trade a single bit for speed
    assert summary["bitwise_equal"], "sweep KPIs diverged from the sensitivity path"
    assert summary["grid_kernel"], "grid kernel unexpectedly not applicable"
    assert summary["n_scenarios"] == 12 * 11 * 10

    # the frontier is sane: the best entry beats the baseline for a
    # maximization sweep over a grid that includes positive perturbations
    assert summary["best"]["kpi_value"] >= summary["baseline_kpi"]
    assert summary["best"]["rank"] == 1

    assert summary["speedup"] >= MIN_SPEEDUP, (
        f"sweep speedup {summary['speedup']:.2f}x below the {MIN_SPEEDUP}x floor"
    )

    path = os.environ.get("BENCH_SWEEP_OUTPUT", "BENCH_scenario_sweep.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
    assert os.path.exists(path)
