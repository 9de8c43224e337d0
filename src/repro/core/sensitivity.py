"""Sensitivity analysis (functionality 2, paper view (H)).

Three flavours, all of which re-run the trained KPI model on hypothetically
perturbed data and compare against the original prediction:

* :func:`run_sensitivity` — the headline interaction: apply a perturbation set
  to the whole dataset, show original vs perturbed KPI and the up-/down-lift
  (the blue/yellow bars of Figure 2-H);
* :func:`run_comparison` — the *comparison analysis* feature: sweep each
  driver individually over a range of perturbation magnitudes so the user can
  "view sensitivity analysis in its entirety and compare KPI trends over all
  drivers";
* :func:`run_per_data` — the *per-data analysis* feature: perturb a single
  data point and observe the change in its own predicted KPI.

Every sweep-shaped runner accepts an optional ``checkpoint`` callable (the
async engine passes :meth:`repro.engine.job.JobContext.checkpoint`): between
chunks of work it is called with the completed fraction, which both publishes
partial progress and gives cooperative cancellation a place to raise.  The
chunked paths are *bitwise identical* to the plain ones — chunks only regroup
rows/matrices whose per-row predictions and per-matrix aggregations are
independent — so an async job returns exactly the payload the synchronous
action would have.  With ``checkpoint=None`` (the synchronous dispatcher) the
original single-shot code paths run untouched.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from .model_manager import ModelManager
from .perturbation import Perturbation, PerturbationSet
from .results import ComparisonPoint, ComparisonResult, PerDataResult, SensitivityResult

__all__ = ["run_sensitivity", "run_comparison", "run_per_data", "split_ranges"]

#: Row-chunk size of the checkpointed sensitivity prediction path.
SENSITIVITY_CHUNK_ROWS = 2048

#: Perturbed matrices evaluated per chunk of a checkpointed comparison sweep.
COMPARISON_CHUNK_MATRICES = 4


def split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``parts`` contiguous sub-ranges.

    The ranges are returned in order and cover every index exactly once, so
    concatenating per-range results reproduces the full-range result for any
    elementwise computation.  Used to partition rows, comparison points, and
    scenario enumerations into process-pool work units.
    """
    total = int(total)
    if total <= 0:
        return []
    parts = max(1, min(int(parts), total))
    step = -(-total // parts)  # ceil division
    return [(start, min(total, start + step)) for start in range(0, total, step)]


def _predict_kpi_chunked(
    manager: ModelManager,
    perturbations: PerturbationSet,
    checkpoint: Callable[[float], None],
    *,
    chunk_rows: int | None = None,
    emit: Callable[..., None] | None = None,
) -> float:
    """Aggregate KPI of the perturbed dataset predicted in row chunks.

    Perturbations are elementwise per row and per-row predictions are
    independent, so concatenating chunk predictions reproduces the
    whole-matrix prediction bitwise; the KPI aggregation then sees the
    identical array.  With ``emit``, every chunk publishes a
    ``sensitivity_chunk`` event carrying the rows scored so far and the
    partial KPI over that prefix — streaming clients watch the estimate
    converge to the exact final value.
    """
    if chunk_rows is None:  # read at call time so tests can shrink the chunks
        chunk_rows = SENSITIVITY_CHUNK_ROWS
    n_rows = manager.driver_matrix().shape[0]
    parts = []
    for start in range(0, n_rows, chunk_rows):
        parts.append(manager.predict_rows_perturbed(perturbations, start, start + chunk_rows))
        checkpoint(min(1.0, (start + chunk_rows) / n_rows))
        if emit is not None:
            emit(
                "sensitivity_chunk",
                {
                    "rows_scored": min(n_rows, start + chunk_rows),
                    "n_rows": n_rows,
                    "partial_kpi": float(manager.kpi.aggregate(np.concatenate(parts))),
                },
            )
    rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return manager.kpi.aggregate(rows)


def _predict_kpi_batch_chunked(
    manager: ModelManager,
    matrices: list[np.ndarray],
    checkpoint: Callable[[float], None],
    *,
    chunk_matrices: int | None = None,
    on_chunk: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Aggregate KPIs of many perturbed matrices, evaluated in chunks.

    Each matrix is predicted and aggregated independently inside
    :meth:`~repro.core.model_manager.ModelManager.predict_kpi_batch`, so
    splitting the batch only changes how the work is grouped, not any value.
    ``on_chunk(start, values)`` fires after each chunk with its KPI values —
    the comparison runner maps them back to (driver, amount) points for
    streaming.
    """
    if chunk_matrices is None:  # read at call time so tests can shrink the chunks
        chunk_matrices = COMPARISON_CHUNK_MATRICES
    kpis = np.empty(len(matrices))
    for start in range(0, len(matrices), chunk_matrices):
        chunk = matrices[start : start + chunk_matrices]
        values = manager.predict_kpi_batch(chunk)
        kpis[start : start + len(chunk)] = values
        checkpoint(min(1.0, (start + len(chunk)) / max(1, len(matrices))))
        if on_chunk is not None:
            on_chunk(start, np.asarray(values))
    return kpis


def _sensitivity_kpi_units(
    manager: ModelManager,
    perturbations: PerturbationSet,
    executor,
    checkpoint: Callable[[float], None] | None,
    emit: Callable[..., None] | None = None,
) -> float:
    """Perturbed KPI computed as row-range work units on a process executor.

    Perturbations are elementwise per row and predictions never look across
    rows, so concatenating per-range predictions in range order reproduces
    the full-matrix prediction bitwise before the single KPI aggregation.
    With ``emit``, each completed row-range unit publishes a
    ``sensitivity_chunk`` event as its result crosses back from the worker
    process (units finish in any order, so no prefix-partial KPI here).
    """
    n_rows = manager.driver_matrix().shape[0]
    ranges = split_ranges(n_rows, executor.workers)
    wire = perturbations.to_list()
    units = [
        ("sensitivity_rows", {"perturbations": wire, "start": start, "stop": stop})
        for start, stop in ranges
    ]

    def on_unit_done(unit_index: int, _result) -> None:
        start, stop = ranges[unit_index]
        emit(
            "sensitivity_chunk",
            {"rows": [start, stop], "n_rows": n_rows, "unit": unit_index},
        )

    parts = executor.run_units(
        manager,
        units,
        checkpoint=checkpoint,
        weights=[stop - start for start, stop in ranges],
        on_unit_done=on_unit_done if emit is not None else None,
    )
    rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return float(manager.kpi.aggregate(rows))


def run_sensitivity(
    manager: ModelManager,
    perturbations: PerturbationSet,
    *,
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> SensitivityResult:
    """Dataset-level sensitivity analysis.

    Parameters
    ----------
    manager:
        The session's model manager.
    perturbations:
        The perturbation set to apply to every row.
    checkpoint:
        Optional progress/cancellation callback; when given, the perturbed
        prediction runs in row chunks (bitwise identical to the single-shot
        path) and ``checkpoint`` is called with the completed fraction after
        each chunk.
    executor:
        Optional process executor; when given, the perturbed prediction is
        partitioned into row-range work units scored by worker processes
        (bitwise identical — see :func:`_sensitivity_kpi_units`).
    emit:
        Optional event publisher (``emit(type, data)``, the job context's
        :meth:`~repro.engine.job.JobContext.emit`); chunked paths publish
        ``sensitivity_chunk`` events for streaming clients.
    """
    unknown = [p.driver for p in perturbations if p.driver not in manager.drivers]
    if unknown:
        raise ValueError(
            f"perturbed drivers are not model inputs: {unknown}; "
            f"available drivers: {manager.drivers}"
        )
    original_kpi = manager.baseline_kpi()
    if executor is not None:
        perturbed_kpi = _sensitivity_kpi_units(
            manager, perturbations, executor, checkpoint, emit
        )
    elif checkpoint is None:
        perturbed_kpi = manager.predict_kpi_perturbed(perturbations)
    else:
        checkpoint(0.0)
        perturbed_kpi = _predict_kpi_chunked(manager, perturbations, checkpoint, emit=emit)
    return SensitivityResult(
        kpi=manager.kpi.name,
        original_kpi=original_kpi,
        perturbed_kpi=perturbed_kpi,
        uplift=perturbed_kpi - original_kpi,
        perturbations=perturbations.to_list(),
        kpi_unit=manager.kpi.unit,
    )


def _comparison_point_events(
    work: list[tuple[str, float]], start: int, values: np.ndarray
) -> dict[str, Any]:
    """``comparison_chunk`` payload for the sweep points ``work[start:...]``."""
    return {
        "points": [
            {"driver": driver, "amount": amount, "kpi_value": float(value)}
            for (driver, amount), value in zip(work[start : start + len(values)], values)
        ],
        "start": start,
        "n_points": len(work),
    }


def _comparison_kpis_units(
    manager: ModelManager,
    work: list[tuple[str, float]],
    mode: str,
    executor,
    checkpoint: Callable[[float], None] | None,
    emit: Callable[..., None] | None = None,
) -> np.ndarray:
    """Comparison-sweep KPIs computed as point-range units on an executor.

    Each (driver, amount) matrix is predicted and aggregated independently,
    so concatenating per-range KPI arrays in range order reproduces the
    one-shot batch bitwise.
    """
    if not work:
        if checkpoint is not None:
            checkpoint(0.0)
        return np.array([])
    ranges = split_ranges(len(work), executor.workers)
    units = [
        (
            "comparison_kpis",
            {
                "pairs": [[driver, amount] for driver, amount in work[start:stop]],
                "mode": mode,
            },
        )
        for start, stop in ranges
    ]
    def on_unit_done(unit_index: int, result) -> None:
        start, _stop = ranges[unit_index]
        emit("comparison_chunk", _comparison_point_events(work, start, np.asarray(result)))

    parts = executor.run_units(
        manager,
        units,
        checkpoint=checkpoint,
        weights=[stop - start for start, stop in ranges],
        on_unit_done=on_unit_done if emit is not None else None,
    )
    return np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])


def run_comparison(
    manager: ModelManager,
    drivers: Sequence[str] | None = None,
    amounts: Sequence[float] = (-40.0, -20.0, 0.0, 20.0, 40.0),
    *,
    mode: str = "percentage",
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
    emit: Callable[..., None] | None = None,
) -> ComparisonResult:
    """Comparison analysis: sweep each driver individually over ``amounts``.

    Parameters
    ----------
    manager:
        The session's model manager.
    drivers:
        Drivers to sweep (default: every model driver).
    amounts:
        Perturbation magnitudes applied one at a time to one driver at a time.
    mode:
        Perturbation mode shared by the sweep.
    checkpoint:
        Optional progress/cancellation callback; when given, the stacked
        sweep is evaluated a few matrices at a time (bitwise identical to
        the one-shot batch) with a checkpoint between chunks.
    executor:
        Optional process executor; when given, the sweep's (driver, amount)
        points are partitioned into range units worker processes evaluate
        (bitwise identical — see :func:`_comparison_kpis_units`).
    emit:
        Optional event publisher; chunked paths publish ``comparison_chunk``
        events carrying each chunk's scored (driver, amount, kpi) points.

    Returns
    -------
    ComparisonResult
        One :class:`ComparisonPoint` per (driver, amount) pair.
    """
    chosen = list(drivers) if drivers is not None else list(manager.drivers)
    unknown = [d for d in chosen if d not in manager.drivers]
    if unknown:
        raise ValueError(f"unknown drivers for comparison analysis: {unknown}")
    if not amounts:
        raise ValueError("comparison analysis needs at least one perturbation amount")

    original_kpi = manager.baseline_kpi()
    sweep = [(driver, float(amount)) for driver in chosen for amount in amounts]
    work = [pair for pair in sweep if pair[1] != 0]
    if executor is not None:
        kpis = iter(
            _comparison_kpis_units(manager, work, mode, executor, checkpoint, emit)
        )
    else:
        # build every perturbed matrix up front, then evaluate the whole sweep
        # in one stacked kernel traversal instead of one model call per point
        baseline_matrix = manager.driver_matrix()
        matrices = [
            Perturbation(driver, amount, mode).apply_to_matrix(
                baseline_matrix, manager.drivers
            )
            for driver, amount in work
        ]
        if checkpoint is None:
            kpis = iter(manager.predict_kpi_batch(matrices))
        else:
            checkpoint(0.0)
            on_chunk = (
                (
                    lambda start, values: emit(
                        "comparison_chunk",
                        _comparison_point_events(work, start, values),
                    )
                )
                if emit is not None
                else None
            )
            kpis = iter(
                _predict_kpi_batch_chunked(manager, matrices, checkpoint, on_chunk=on_chunk)
            )
    points = [
        ComparisonPoint(
            driver=driver,
            amount=amount,
            kpi_value=original_kpi if amount == 0 else float(next(kpis)),
        )
        for driver, amount in sweep
    ]
    return ComparisonResult(
        kpi=manager.kpi.name,
        original_kpi=original_kpi,
        mode=mode,
        points=tuple(points),
    )


def run_per_data(
    manager: ModelManager, row_index: int, perturbations: PerturbationSet
) -> PerDataResult:
    """Per-data analysis: perturb one row and re-predict its KPI.

    Parameters
    ----------
    manager:
        The session's model manager.
    row_index:
        Index of the data point to drill into.
    perturbations:
        Perturbations applied to that row only.
    """
    frame = manager.frame
    if not 0 <= row_index < frame.n_rows:
        raise IndexError(
            f"row index {row_index} out of range for a dataset of {frame.n_rows} rows"
        )
    unknown = [p.driver for p in perturbations if p.driver not in manager.drivers]
    if unknown:
        raise ValueError(f"perturbed drivers are not model inputs: {unknown}")

    original_prediction = float(manager.baseline_rows()[row_index])
    perturbed_frame = perturbations.apply_to_row(frame, row_index)
    perturbed_prediction = manager.predict_row(perturbed_frame, row_index)

    original_row = {d: frame.column(d)[row_index] for d in manager.drivers}
    perturbed_row = {d: perturbed_frame.column(d)[row_index] for d in manager.drivers}
    return PerDataResult(
        kpi=manager.kpi.name,
        row_index=row_index,
        original_prediction=original_prediction,
        perturbed_prediction=perturbed_prediction,
        original_row=original_row,
        perturbed_row=perturbed_row,
        perturbations=perturbations.to_list(),
    )
