"""Reusable sweep benchmark workloads (CLI ``sweep --bench`` + pytest bench).

The workloads answer the question the sweep planner exists for: how much
faster is scoring a whole scenario space in batched matrix form than the
seed's only alternative, a Python loop of per-scenario sensitivity calls?

:func:`run_sweep_benchmark` evaluates the *identical* list of scenarios
against the same trained model three ways:

* **looped** — one full forest traversal per scenario (perturb, predict,
  aggregate — the seed's per-scenario sensitivity call);
* **sensitivity-looped** — one :func:`~repro.core.sensitivity.run_sensitivity`
  call per scenario, which delta-evaluates each scenario against the cached
  baseline leaves (the cost a user pays today for each hand-built option);
* **batched** — one :func:`~repro.scenarios.planner.run_sweep` call that
  scores the whole grid through the grid kernel
  (:mod:`repro.scenarios.kernel`), which traverses only the
  ``(tree, row)`` pairs the grid moves out of their baseline leaf.

:func:`run_block_benchmark` times the shape a process-pool worker scores: a
head-axis block of a sweep over a 2000-row dataset, through the grid kernel
and through the looped arm.

The KPI values must match **bitwise** (the grid kernel takes identical
decisions and gathers identical leaf payloads, only batched differently), so
``speedup`` and ``block_speedup`` (looped over grid kernel) are pure batching
wins.  Callers assert a floor on ``speedup`` and write the summary to
``BENCH_scenario_sweep.json``; ``sensitivity_speedup`` (sensitivity-looped
over batched) is what sweeping saves over today's per-scenario calls.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..core.sensitivity import run_sensitivity
from ..core.session import WhatIfSession
from ..datasets import get_use_case
from .kernel import grid_kernel_applies, grid_sweep_kpis
from .planner import run_sweep
from .space import Axis, ScenarioSpace

__all__ = ["run_sweep_benchmark", "run_block_benchmark", "build_benchmark_space"]


def build_benchmark_space(
    drivers: list[str], levels: tuple[int, ...]
) -> ScenarioSpace:
    """A deterministic multi-axis percentage space over the first drivers.

    Axis ``i`` spans −40%…+40% in ``levels[i]`` evenly spaced steps; the
    cartesian product is the benchmark's scenario count.
    """
    if len(drivers) < len(levels):
        raise ValueError(
            f"use case has {len(drivers)} drivers but the space needs {len(levels)}"
        )
    axes = [
        Axis.span(driver, -40.0, 40.0, n)
        for driver, n in zip(drivers[: len(levels)], levels)
    ]
    return ScenarioSpace(axes)


def run_sweep_benchmark(
    *,
    use_case: str = "deal_closing",
    rows: int = 400,
    levels: tuple[int, ...] = (12, 11, 10),
    top_k: int = 10,
    seed: int = 0,
) -> dict[str, Any]:
    """Time batched sweep vs per-scenario loops; return a summary.

    Raises ``RuntimeError`` if the paths' KPI values are not bitwise
    identical, so callers can trust the speedup numbers.
    """
    session = WhatIfSession.from_use_case(
        use_case,
        dataset_kwargs=get_use_case(use_case).size_kwargs(rows),
        random_state=seed,
    )
    manager = session.model
    space = build_benchmark_space(session.drivers, levels)
    scenarios = space.scenarios()

    # warm-up: train the model, memoise the baseline, touch both code paths
    manager.baseline_kpi()
    run_sensitivity(manager, space.perturbations(scenarios[0]))
    warm_space = ScenarioSpace([Axis.values(space.axes[0].driver, [-10.0, 10.0])])
    run_sweep(manager, warm_space, top_k=1)

    started = time.perf_counter()
    result = run_sweep(manager, space, top_k=top_k)
    batched_s = time.perf_counter() - started

    started = time.perf_counter()
    looped = _full_traversal_kpis(manager, space)
    loop_s = time.perf_counter() - started

    started = time.perf_counter()
    sensitivity_looped = [
        run_sensitivity(manager, space.perturbations(scenario)).perturbed_kpi
        for scenario in scenarios
    ]
    sensitivity_loop_s = time.perf_counter() - started

    bitwise_equal = looped == sensitivity_looped == list(result.kpi_values)
    if not bitwise_equal:
        raise RuntimeError(
            "batched sweep KPI values diverged from the per-scenario "
            "sensitivity path"
        )

    return {
        "use_case": use_case,
        "rows": rows,
        "levels": list(levels),
        "n_scenarios": len(scenarios),
        "loop_s": loop_s,
        "sensitivity_loop_s": sensitivity_loop_s,
        "batched_s": batched_s,
        "speedup": loop_s / batched_s if batched_s else float("inf"),
        "sensitivity_speedup": (
            sensitivity_loop_s / batched_s if batched_s else float("inf")
        ),
        "bitwise_equal": bitwise_equal,
        "grid_kernel": grid_kernel_applies(manager, space),
        "baseline_kpi": result.baseline_kpi,
        "best": result.best.to_dict(),
        "goal": result.goal,
        "top_k": top_k,
    }


def _full_traversal_kpis(manager, space: ScenarioSpace) -> list[float]:
    """The looped arm: one full forest traversal per scenario."""
    baseline_matrix = manager.driver_matrix()
    return [
        manager.kpi.aggregate(
            manager.predict_rows_matrix(
                space.perturbations(scenario).apply_to_matrix(baseline_matrix, manager.drivers)
            )
        )
        for scenario in space.scenarios()
    ]


def run_block_benchmark(
    *,
    use_case: str = "deal_closing",
    rows: int = 2000,
    levels: tuple[int, ...] = (3, 3, 9),
    repeats: int = 3,
    seed: int = 0,
) -> dict[str, Any]:
    """Time the grid kernel against the looped arm on one worker-sized block.

    The arms alternate ``repeats`` times and the medians are reported.
    Raises ``RuntimeError`` if the arms' KPI values are not bitwise identical.
    """
    session = WhatIfSession.from_use_case(
        use_case,
        dataset_kwargs=get_use_case(use_case).size_kwargs(rows),
        random_state=seed,
    )
    manager = session.model
    space = build_benchmark_space(session.drivers, levels)
    # fit the model and memoise the baseline; the warm-up sweep builds the boxes
    manager.baseline_kpi()
    grid_sweep_kpis(manager, ScenarioSpace([Axis.values(space.axes[0].driver, [-10.0, 10.0])]))

    kernel_s, loop_s = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel_kpis = grid_sweep_kpis(manager, space)
        kernel_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        looped = _full_traversal_kpis(manager, space)
        loop_s.append(time.perf_counter() - started)
        if kernel_kpis is None or list(kernel_kpis) != looped:
            raise RuntimeError("grid-kernel block KPIs diverged from the looped arm")
    block_kernel_s = float(np.median(kernel_s))
    block_loop_s = float(np.median(loop_s))
    return {
        "block_rows": rows,
        "block_levels": list(levels),
        "block_repeats": repeats,
        "block_kernel_s": block_kernel_s,
        "block_loop_s": block_loop_s,
        "block_speedup": block_loop_s / block_kernel_s,
    }
