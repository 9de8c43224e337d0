"""The sweep planner: score whole scenario spaces in batched matrix form.

Where :func:`~repro.core.sensitivity.run_sensitivity` answers one what-if
question per call, :class:`SweepPlanner` answers thousands: it enumerates a
:class:`~repro.scenarios.space.ScenarioSpace`, compiles every scenario in a
chunk into one stacked perturbation matrix, and scores the stack through
:meth:`~repro.core.model_manager.ModelManager.predict_kpi_batch` — one kernel
pass per chunk instead of a Python loop of sensitivity calls.  The KPI values
are **bitwise identical** to running the per-scenario sensitivity path
(chunks only regroup matrices whose per-row predictions are independent), so
a sweep is a pure batching win, never an approximation.

Results land as a ranked :class:`SweepResult`:

* the **top-k frontier** — the best scenarios under the sweep's goal;
* **per-axis marginal KPI profiles** — mean/best KPI at every level of every
  axis, the "which dial matters" view across the whole space;
* optional **cohort breakdowns** — per-cohort KPI of the frontier scenarios,
  computed from the frame layer's group-index arrays (no sub-frame or
  per-cohort model is materialised).

The ``checkpoint`` callable threads the async engine's progress/cancellation
through the chunk loop exactly like the other analysis runners.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.model_manager import ModelManager
from ..core.sensitivity import split_ranges
from ..frame.kernels import group_index
from .kernel import grid_kernel_applies, grid_sweep_kpis
from .space import ScenarioSpace, SweepScenario

__all__ = ["SweepEntry", "SweepResult", "SweepPlanner", "run_sweep", "SWEEP_GOALS"]

#: Goals a sweep can rank by.
SWEEP_GOALS = ("maximize", "minimize")

#: Scenarios compiled and scored per kernel pass.  Each chunk stacks this
#: many perturbed copies of the driver matrix, so the working set stays in
#: cache while the per-call overhead amortises across the whole chunk.
SWEEP_CHUNK_SCENARIOS = 64

#: Largest sweep whose raw per-scenario KPI surface is embedded in
#: :meth:`SweepResult.to_dict` — bigger sweeps serialise ``kpi_values`` as
#: ``None`` so ledger entries and job payloads stay bounded (the frontier,
#: marginals, and cohorts already summarise the space).
MAX_SERIALIZED_KPI_VALUES = 10_000


@dataclass(frozen=True)
class SweepEntry:
    """One ranked scenario of a sweep (a row of the frontier table).

    Attributes
    ----------
    rank:
        1-based position under the sweep's goal (1 = best).
    scenario_index:
        The scenario's index in the space's enumeration order.
    amounts:
        ``{driver: amount}`` of the scenario's perturbations.
    kpi_value:
        Aggregate KPI the model predicts for the scenario.
    uplift:
        ``kpi_value`` minus the baseline KPI.
    label:
        Human-readable rendering (``"Call +20%, Email -10%"``).
    """

    rank: int
    scenario_index: int
    amounts: dict[str, float]
    kpi_value: float
    uplift: float
    label: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "rank": self.rank,
            "scenario_index": self.scenario_index,
            "amounts": dict(self.amounts),
            "kpi_value": self.kpi_value,
            "uplift": self.uplift,
            "label": self.label,
        }


@dataclass(frozen=True)
class SweepResult:
    """Output of one scenario-space sweep.

    Attributes
    ----------
    kpi:
        KPI column name.
    goal:
        ``"maximize"`` or ``"minimize"`` (what the ranking optimises).
    baseline_kpi:
        KPI predicted on the unperturbed dataset.
    n_space:
        Cartesian size of the space before pruning/sampling.
    n_scenarios:
        Scenarios actually scored.
    n_pruned:
        Combinations removed by constraint predicates (exhaustive spaces
        only; sampled spaces report 0 because rejected draws are retried).
    space:
        Canonical JSON form of the swept space.
    top:
        The top-k frontier, best first.
    marginals:
        ``{driver: [{"amount", "count", "mean_kpi", "best_kpi"}, ...]}`` —
        the KPI profile along each axis, marginalised over all scenarios.
    cohorts:
        Per-cohort KPI of the frontier scenarios (``None`` unless a cohort
        column was requested).
    kpi_values:
        Every scenario's KPI in enumeration order (the raw sweep surface).
        Always populated on the result object; serialised by
        :meth:`to_dict` only up to :data:`MAX_SERIALIZED_KPI_VALUES`
        scenarios (``None`` beyond, keeping ledger entries and job payloads
        bounded).
    """

    kpi: str
    goal: str
    baseline_kpi: float
    n_space: int
    n_scenarios: int
    n_pruned: int
    space: dict[str, Any]
    top: tuple[SweepEntry, ...]
    marginals: dict[str, list[dict[str, Any]]]
    cohorts: dict[str, Any] | None = None
    kpi_values: tuple[float, ...] = field(default=(), repr=False)
    kpi_unit: str = ""

    @property
    def best(self) -> SweepEntry:
        """The frontier's best scenario."""
        return self.top[0]

    @property
    def best_kpi(self) -> float:
        """KPI value of the best scenario."""
        return self.best.kpi_value

    @property
    def uplift(self) -> float:
        """Best KPI minus baseline."""
        return self.best.uplift

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {
            "kpi": self.kpi,
            "goal": self.goal,
            "baseline_kpi": self.baseline_kpi,
            "n_space": self.n_space,
            "n_scenarios": self.n_scenarios,
            "n_pruned": self.n_pruned,
            "space": dict(self.space),
            "top": [entry.to_dict() for entry in self.top],
            "marginals": {
                driver: [dict(point) for point in points]
                for driver, points in self.marginals.items()
            },
            "cohorts": dict(self.cohorts) if self.cohorts is not None else None,
            "kpi_values": (
                list(self.kpi_values)
                if len(self.kpi_values) <= MAX_SERIALIZED_KPI_VALUES
                else None
            ),
            "kpi_unit": self.kpi_unit,
        }


class SweepPlanner:
    """Plans and executes one batched sweep over a scenario space.

    Parameters
    ----------
    manager:
        The session's trained model manager.
    space:
        The scenario space to evaluate.
    goal:
        ``"maximize"`` (default) or ``"minimize"``.
    top_k:
        Frontier size (ties resolve in enumeration order).
    cohort_column:
        Optional column to break the frontier scenarios down by.
    """

    def __init__(
        self,
        manager: ModelManager,
        space: ScenarioSpace,
        *,
        goal: str = "maximize",
        top_k: int = 10,
        cohort_column: str | None = None,
    ) -> None:
        if goal not in SWEEP_GOALS:
            raise ValueError(f"goal must be one of {SWEEP_GOALS}, got {goal!r}")
        if top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k}")
        unknown = [d for d in space.drivers if d not in manager.drivers]
        if unknown:
            raise ValueError(
                f"swept drivers are not model inputs: {unknown}; "
                f"available drivers: {manager.drivers}"
            )
        if cohort_column is not None and not manager.frame.has_column(cohort_column):
            raise ValueError(f"cohort column {cohort_column!r} not found in the dataset")
        self.manager = manager
        self.space = space
        self.goal = goal
        self.top_k = top_k
        self.cohort_column = cohort_column

    # ------------------------------------------------------------------ #
    def run(
        self,
        *,
        checkpoint: Callable[[float], None] | None = None,
        executor=None,
        emit: Callable[..., None] | None = None,
    ) -> SweepResult:
        """Enumerate, score, rank, and profile the space.

        ``checkpoint`` is called with the completed fraction after every
        scored chunk (and during the cohort breakdown), publishing progress
        and honouring cooperative cancellation between kernel passes.  With
        ``executor`` (a process executor), scoring is partitioned into
        contiguous sub-range work units scored by worker processes and merged
        in enumeration order — bitwise identical to the serial paths.

        ``emit`` (the job context's event publisher) streams incremental
        ``sweep_chunk`` events — one per scored chunk or completed work
        unit, carrying the enumeration range and the running best scenario —
        so subscribers watch the frontier improve live.  The serial grid
        kernel accumulates KPIs across trees and only yields the complete
        surface at the end, so that path publishes progress ticks but no
        partial frontiers.
        """
        scenarios = self.space.scenarios()
        if not scenarios:
            raise ValueError(
                "the scenario space is empty after constraint pruning; "
                "relax the constraints or widen the axes"
            )
        if checkpoint is not None:
            checkpoint(0.0)
        kpis = self._score(scenarios, checkpoint, executor=executor, emit=emit)
        order = self._rank(kpis)
        baseline = self.manager.baseline_kpi()
        top = self._frontier(scenarios, kpis, order, baseline)
        marginals = self._marginals(scenarios, kpis)
        cohorts = (
            self._cohort_breakdown(scenarios, top, checkpoint)
            if self.cohort_column is not None
            else None
        )
        n_pruned = (
            self.space.size - len(scenarios) if self.space.sample is None else 0
        )
        return SweepResult(
            kpi=self.manager.kpi.name,
            goal=self.goal,
            baseline_kpi=baseline,
            n_space=self.space.size,
            n_scenarios=len(scenarios),
            n_pruned=n_pruned,
            space=self.space.to_dict(),
            top=top,
            marginals=marginals,
            cohorts=cohorts,
            kpi_values=tuple(float(v) for v in kpis),
            kpi_unit=self.manager.kpi.unit,
        )

    # ------------------------------------------------------------------ #
    def _score(
        self,
        scenarios: list[SweepScenario],
        checkpoint: Callable[[float], None] | None,
        *,
        chunk_scenarios: int | None = None,
        executor=None,
        emit: Callable[..., None] | None = None,
    ) -> np.ndarray:
        """Score every scenario in batched matrix form.

        Exhaustive grid spaces on kernel-compiled forests go through the
        grid kernel, which traverses only the ``(tree, row)`` pairs the
        space moves out of their baseline leaf, once per box of the level
        grid (see :mod:`repro.scenarios.kernel`).  Everything else falls
        back to stacked ``predict_kpi_batch`` chunks.  Both paths regroup
        work without moving a single bit of any KPI value, so results are
        identical to the per-scenario sensitivity path either way.
        """
        if chunk_scenarios is None:  # read at call time so tests can shrink chunks
            chunk_scenarios = SWEEP_CHUNK_SCENARIOS
        manager = self.manager
        # the cohort phase owns the tail of the progress bar when requested
        scored_share = 0.9 if self.cohort_column is not None else 1.0
        if executor is not None:
            unit_kpis = self._score_units(
                scenarios, checkpoint, executor, scored_share, emit
            )
            if unit_kpis is not None:
                return unit_kpis
        grid_kpis = grid_sweep_kpis(
            manager,
            self.space,
            checkpoint=checkpoint,
            progress_share=scored_share,
        )
        if grid_kpis is not None:
            return grid_kpis
        baseline_matrix = manager.driver_matrix()
        kpis = np.empty(len(scenarios))
        running_best: dict[str, Any] = {}
        for start in range(0, len(scenarios), chunk_scenarios):
            chunk = scenarios[start : start + chunk_scenarios]
            matrices = [
                self.space.perturbations(scenario).apply_to_matrix(
                    baseline_matrix, manager.drivers
                )
                for scenario in chunk
            ]
            kpis[start : start + len(chunk)] = manager.predict_kpi_batch(matrices)
            if checkpoint is not None:
                checkpoint(scored_share * (start + len(chunk)) / len(scenarios))
            if emit is not None:
                emit(
                    "sweep_chunk",
                    self._frontier_chunk(
                        scenarios,
                        kpis[start : start + len(chunk)],
                        start,
                        start + len(chunk),
                        scored=start + len(chunk),
                        total=len(scenarios),
                        running_best=running_best,
                        include_values=True,
                    ),
                )
        return kpis

    def _frontier_chunk(
        self,
        scenarios: list[SweepScenario],
        part: np.ndarray,
        start: int,
        stop: int,
        *,
        scored: int,
        total: int,
        running_best: dict[str, Any],
        include_values: bool,
    ) -> dict[str, Any]:
        """Build one ``sweep_chunk`` event payload, folding the chunk's best
        scenario into the caller's ``running_best`` accumulator.

        Strictly-better comparisons keep tie resolution aligned with the
        final frontier's stable ranking when chunks arrive in enumeration
        order (the serial path); out-of-order unit completions may break a
        tie differently, which only affects the advisory live view — the
        terminal result is always the exactly-ranked frontier.
        """
        part = np.asarray(part, dtype=np.float64)
        local = int(np.argmax(part) if self.goal == "maximize" else np.argmin(part))
        value = float(part[local])
        incumbent = running_best.get("kpi_value")
        if incumbent is None or (
            value > incumbent if self.goal == "maximize" else value < incumbent
        ):
            scenario = scenarios[start + local]
            running_best.update(
                scenario_index=scenario.scenario_index,
                kpi_value=value,
                label=self.space.label(scenario),
            )
        return {
            "start": int(start),
            "stop": int(stop),
            "scored": int(scored),
            "total": int(total),
            "kpi_values": [float(v) for v in part] if include_values else None,
            "best": dict(running_best),
        }

    def _score_units(
        self,
        scenarios: list[SweepScenario],
        checkpoint: Callable[[float], None] | None,
        executor,
        scored_share: float,
        emit: Callable[..., None] | None = None,
    ) -> np.ndarray | None:
        """Score the space as contiguous sub-range units on a process executor.

        Exhaustive kernel-eligible grids are partitioned along the canonical
        *outermost* axis (the first of the driver-name-sorted axes): its
        levels vary slowest in :meth:`ScenarioSpace.scenarios`, so a level
        block ``[lo, hi)`` is exactly the enumeration slice
        ``[lo * inner, hi * inner)`` and the grid kernel scores each block
        independently.  Other spaces split into enumeration-index ranges that
        workers re-enumerate deterministically.  Either way the per-unit KPI
        arrays concatenate in dispatch order into the identical enumeration-
        order surface the serial ``_score`` produces, so frontier, marginals,
        and cohort ranking downstream are bitwise unchanged.

        Returns ``None`` when the space cannot travel over the wire (callable
        constraints don't serialise) — the caller then stays in-process.
        """
        space = self.space
        payload = space.to_dict()
        try:
            ScenarioSpace.from_dict(payload)
        except (TypeError, ValueError, KeyError):
            return None
        if grid_kernel_applies(self.manager, space):
            head = space.axes[0]
            levels = len(head.amounts)
            inner = space.size // levels
            blocks = split_ranges(levels, executor.workers)
            units = [
                ("sweep_grid_block", {"space": payload, "lo": lo, "hi": hi})
                for lo, hi in blocks
            ]
            weights = [(hi - lo) * inner for lo, hi in blocks]
            enum_ranges = [(lo * inner, hi * inner) for lo, hi in blocks]
        else:
            ranges = split_ranges(len(scenarios), executor.workers)
            units = [
                ("sweep_slice", {"space": payload, "start": start, "stop": stop})
                for start, stop in ranges
            ]
            weights = [stop - start for start, stop in ranges]
            enum_ranges = ranges
        # on_unit_done fires on this (the job's) thread from the run_units
        # waiter loop, so the running-best accumulator needs no locking even
        # though units complete in any order across worker processes
        running_best: dict[str, Any] = {}
        scored_units = {"count": 0}

        def on_unit_done(unit_index: int, result) -> None:
            start, stop = enum_ranges[unit_index]
            scored_units["count"] += stop - start
            emit(
                "sweep_chunk",
                self._frontier_chunk(
                    scenarios,
                    np.asarray(result, dtype=np.float64),
                    start,
                    stop,
                    scored=scored_units["count"],
                    total=len(scenarios),
                    running_best=running_best,
                    include_values=False,
                ),
            )

        parts = executor.run_units(
            self.manager,
            units,
            checkpoint=checkpoint,
            progress=(0.0, scored_share),
            weights=weights,
            on_unit_done=on_unit_done if emit is not None else None,
        )
        return np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])

    def _rank(self, kpis: np.ndarray) -> np.ndarray:
        """Scenario order best-to-worst (stable, so ties keep enumeration order)."""
        keys = -kpis if self.goal == "maximize" else kpis
        return np.argsort(keys, kind="stable")

    def _frontier(
        self,
        scenarios: list[SweepScenario],
        kpis: np.ndarray,
        order: np.ndarray,
        baseline: float,
    ) -> tuple[SweepEntry, ...]:
        entries = []
        for rank, position in enumerate(order[: self.top_k], start=1):
            scenario = scenarios[int(position)]
            kpi_value = float(kpis[int(position)])
            entries.append(
                SweepEntry(
                    rank=rank,
                    scenario_index=scenario.scenario_index,
                    amounts={
                        axis.driver: amount
                        for axis, amount in zip(self.space.axes, scenario.amounts)
                    },
                    kpi_value=kpi_value,
                    uplift=kpi_value - baseline,
                    label=self.space.label(scenario),
                )
            )
        return tuple(entries)

    def _marginals(
        self, scenarios: list[SweepScenario], kpis: np.ndarray
    ) -> dict[str, list[dict[str, Any]]]:
        """Mean/best KPI at every level of every axis.

        Marginalising over all scored scenarios answers "holding everything
        else mixed, how does the KPI respond to this one dial" — the sweep
        analogue of comparison analysis, but over the joint space instead of
        one-driver-at-a-time.
        """
        best = np.max if self.goal == "maximize" else np.min
        amounts = np.array([s.amounts for s in scenarios])
        profiles: dict[str, list[dict[str, Any]]] = {}
        for column, axis in enumerate(self.space.axes):
            points = []
            for amount in axis.amounts:
                mask = amounts[:, column] == amount
                count = int(mask.sum())
                points.append(
                    {
                        "amount": float(amount),
                        "count": count,
                        "mean_kpi": float(kpis[mask].mean()) if count else None,
                        "best_kpi": float(best(kpis[mask])) if count else None,
                    }
                )
            profiles[axis.driver] = points
        return profiles

    # ------------------------------------------------------------------ #
    def _cohort_breakdown(
        self,
        scenarios: list[SweepScenario],
        top: tuple[SweepEntry, ...],
        checkpoint: Callable[[float], None] | None,
    ) -> dict[str, Any]:
        """Per-cohort KPI of the frontier scenarios.

        One :func:`~repro.frame.kernels.group_index` pass factorizes the
        cohort column; baseline and frontier predictions are then aggregated
        per group straight from the index arrays — no per-cohort sub-frame or
        model is ever built (the breakdown reads the *global* model's per-row
        predictions through the cohort partition).
        """
        manager = self.manager
        frame = manager.frame
        column = frame.column(self.cohort_column)
        index = group_index([column])
        labels = [str(column[int(row)]) for row in index.first_rows]
        baseline_rows = manager.baseline_rows()
        by_scenario = []
        scenario_of = {s.scenario_index: s for s in scenarios}
        baseline_matrix = manager.driver_matrix()
        for position, entry in enumerate(top, start=1):
            scenario = scenario_of[entry.scenario_index]
            matrix = self.space.perturbations(scenario).apply_to_matrix(
                baseline_matrix, manager.drivers
            )
            rows = manager.predict_rows_matrix(matrix)
            by_scenario.append(
                {
                    "scenario_index": entry.scenario_index,
                    "rank": entry.rank,
                    "per_cohort": dict(
                        zip(labels, self._aggregate_groups(rows, index))
                    ),
                }
            )
            if checkpoint is not None:
                checkpoint(0.9 + 0.1 * position / len(top))
        return {
            "column": self.cohort_column,
            "cohort_sizes": dict(zip(labels, index.counts.tolist())),
            "baseline": dict(zip(labels, self._aggregate_groups(baseline_rows, index))),
            "scenarios": by_scenario,
        }

    def _aggregate_groups(self, rows: np.ndarray, index) -> list[float]:
        """Per-group KPI aggregation matching :meth:`~repro.core.kpi.KPI.aggregate`."""
        kpi = self.manager.kpi
        counts = index.counts.astype(np.float64)
        if kpi.aggregation == "rate":
            sums = np.bincount(
                index.codes, weights=np.clip(rows, 0.0, 1.0), minlength=index.n_groups
            )
            return (sums / counts * 100.0).tolist()
        sums = np.bincount(index.codes, weights=rows, minlength=index.n_groups)
        if kpi.aggregation == "sum":
            return sums.tolist()
        return (sums / counts).tolist()


def run_sweep(
    manager: ModelManager,
    space: ScenarioSpace,
    *,
    goal: str = "maximize",
    top_k: int = 10,
    cohort_column: str | None = None,
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> SweepResult:
    """Functional entry point mirroring the other analysis runners."""
    planner = SweepPlanner(
        manager, space, goal=goal, top_k=top_k, cohort_column=cohort_column
    )
    return planner.run(checkpoint=checkpoint, executor=executor, emit=emit)
