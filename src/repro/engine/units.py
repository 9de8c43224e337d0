"""Picklable work units: the payloads a :class:`ProcessExecutor` ships.

The process pool cannot ship closures over live runner state, so every
CPU-heavy analysis is decomposed here into ``(kind, payload)`` pairs — a
registered unit-kind name plus a JSON-ish dict of plain values — that a
worker process executes against its per-process mirror of the fitted
:class:`~repro.core.model_manager.ModelManager`.  The decompositions regroup
work whose pieces are mathematically independent, so concatenating unit
results in dispatch order is **bitwise identical** to the serial path:

* ``sensitivity_rows`` — perturbations are elementwise per row (scale/add +
  clamp), and per-row predictions never look at other rows, so a row-range
  slice perturbs and predicts exactly the rows the full matrix would;
* ``comparison_kpis`` — each (driver, amount) matrix is predicted and
  aggregated independently inside ``predict_kpi_batch``;
* ``sweep_grid_block`` — :meth:`ScenarioSpace.scenarios` enumerates the
  cartesian product with the *leftmost* (first-sorted) axis slowest, so a
  contiguous block of that axis's levels is a contiguous slice of the full
  enumeration; the grid kernel scores the sub-space exactly as it would the
  full grid (it is bitwise identical to the per-scenario path either way);
* ``sweep_slice`` — sampled/constrained spaces enumerate deterministically
  (seeded RNG / Halton / ordered pruning), so a worker re-enumerates and
  scores an index range of the identical scenario list;
* ``goal_inversion`` / ``driver_importance`` — sequential algorithms ship as
  one whole-analysis unit: the win is escaping the GIL, not splitting them.

Runners never import this module (they pass kind strings to a duck-typed
executor), so ``core``/``scenarios`` stay free of engine imports.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from ..core.model_manager import ModelManager
from ..core.perturbation import Perturbation, PerturbationSet
from ..core.sensitivity import COMPARISON_CHUNK_MATRICES, SENSITIVITY_CHUNK_ROWS
from ..obs import trace

__all__ = ["UnitCancelled", "run_unit", "UNIT_KINDS"]


class UnitCancelled(Exception):
    """Raised inside a worker checkpoint when the unit's group was cancelled
    via the shared flag; the worker loop reports the unit as ``cancelled``."""


def _unit_sensitivity_rows(
    manager: ModelManager, payload: dict[str, Any], checkpoint: Callable[[float], None]
) -> np.ndarray:
    """Perturb and predict one row range ``[start, stop)`` of the dataset."""
    perturbations = PerturbationSet.from_list(payload["perturbations"])
    start, stop = int(payload["start"]), int(payload["stop"])
    chunk_rows = int(payload.get("chunk_rows") or SENSITIVITY_CHUNK_ROWS)
    n_rows = stop - start
    parts = []
    for offset in range(start, stop, chunk_rows):
        end = min(stop, offset + chunk_rows)
        parts.append(manager.predict_rows_perturbed(perturbations, offset, end))
        checkpoint(min(1.0, (end - start) / max(1, n_rows)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _unit_comparison_kpis(
    manager: ModelManager, payload: dict[str, Any], checkpoint: Callable[[float], None]
) -> np.ndarray:
    """Aggregate KPIs of a slice of a comparison sweep's (driver, amount) pairs."""
    pairs = payload["pairs"]
    mode = str(payload["mode"])
    chunk_matrices = int(payload.get("chunk_matrices") or COMPARISON_CHUNK_MATRICES)
    baseline_matrix = manager.driver_matrix()
    matrices = [
        Perturbation(str(driver), float(amount), mode).apply_to_matrix(
            baseline_matrix, manager.drivers
        )
        for driver, amount in pairs
    ]
    kpis = np.empty(len(matrices))
    for start in range(0, len(matrices), chunk_matrices):
        chunk = matrices[start : start + chunk_matrices]
        kpis[start : start + len(chunk)] = manager.predict_kpi_batch(chunk)
        checkpoint(min(1.0, (start + len(chunk)) / max(1, len(matrices))))
    return kpis


def _unit_sweep_slice(
    manager: ModelManager, payload: dict[str, Any], checkpoint: Callable[[float], None]
) -> np.ndarray:
    """Score enumeration indices ``[start, stop)`` of a serialised space.

    The worker re-enumerates the deterministic scenario list (exhaustive
    pruning, seeded sampling, and Halton walks all reproduce exactly) and
    scores its slice through the same chunked batch path the planner uses.
    """
    from ..scenarios.space import ScenarioSpace

    space = ScenarioSpace.from_dict(payload["space"])
    start, stop = int(payload["start"]), int(payload["stop"])
    chunk_scenarios = int(payload.get("chunk_scenarios") or _sweep_chunk_scenarios())
    scenarios = space.scenarios()[start:stop]
    baseline_matrix = manager.driver_matrix()
    kpis = np.empty(len(scenarios))
    for offset in range(0, len(scenarios), chunk_scenarios):
        chunk = scenarios[offset : offset + chunk_scenarios]
        matrices = [
            space.perturbations(scenario).apply_to_matrix(
                baseline_matrix, manager.drivers
            )
            for scenario in chunk
        ]
        kpis[offset : offset + len(chunk)] = manager.predict_kpi_batch(matrices)
        checkpoint(min(1.0, (offset + len(chunk)) / max(1, len(scenarios))))
    return kpis


def _sweep_chunk_scenarios() -> int:
    from ..scenarios.planner import SWEEP_CHUNK_SCENARIOS

    return SWEEP_CHUNK_SCENARIOS


def _unit_sweep_grid_block(
    manager: ModelManager, payload: dict[str, Any], checkpoint: Callable[[float], None]
) -> np.ndarray:
    """Grid-kernel scoring of levels ``[lo, hi)`` of the outermost sweep axis.

    The sub-space keeps every other axis whole, so its enumeration is exactly
    the ``[lo * inner, hi * inner)`` slice of the full space's enumeration
    (the outermost axis varies slowest).  Should the kernel decline the
    sub-space (the rare interval-property violation), the identical slice is
    scored through the chunked path instead — same values either way.
    """
    from ..scenarios.kernel import grid_sweep_kpis
    from ..scenarios.space import Axis, ScenarioSpace

    space = ScenarioSpace.from_dict(payload["space"])
    lo, hi = int(payload["lo"]), int(payload["hi"])
    head = space.axes[0]
    sub_space = ScenarioSpace(
        [
            Axis(driver=head.driver, amounts=head.amounts[lo:hi], mode=head.mode),
            *space.axes[1:],
        ]
    )
    kpis = grid_sweep_kpis(manager, sub_space, checkpoint=checkpoint)
    if kpis is None:  # interval-violation fallback
        return _unit_sweep_slice(
            manager,
            {"space": sub_space.to_dict(), "start": 0, "stop": sub_space.size},
            checkpoint,
        )
    return kpis


def _unit_goal_inversion(
    manager: ModelManager, payload: dict[str, Any], checkpoint: Callable[[float], None]
):
    """Run a whole (unconstrained) goal inversion as one unit."""
    from ..core.goal_inversion import invert_goal

    bounds = {
        str(driver): (float(pair[0]), float(pair[1]))
        for driver, pair in (payload.get("bounds") or {}).items()
    }
    return invert_goal(
        manager,
        goal=str(payload["goal"]),
        target_value=payload.get("target_value"),
        drivers=payload.get("drivers"),
        bounds=bounds or None,
        mode=str(payload.get("mode", "percentage")),
        default_range=tuple(payload["default_range"]),
        n_calls=int(payload["n_calls"]),
        optimizer=str(payload.get("optimizer", "bayesian")),
        random_state=payload.get("random_state"),
        checkpoint=checkpoint,
    )


def _unit_driver_importance(
    manager: ModelManager, payload: dict[str, Any], checkpoint: Callable[[float], None]
):
    """Run a whole driver-importance analysis (with verification) as one unit."""
    from ..core.driver_importance import compute_driver_importance

    return compute_driver_importance(
        manager,
        verify=bool(payload.get("verify", True)),
        shapley_samples=int(payload.get("shapley_samples", 40)),
        shapley_permutations=int(payload.get("shapley_permutations", 10)),
        permutation_repeats=int(payload.get("permutation_repeats", 3)),
        random_state=payload.get("random_state"),
        checkpoint=checkpoint,
    )


#: Registry of unit kinds; runners reference these names as plain strings.
_UNIT_RUNNERS: dict[str, Callable[[ModelManager, dict[str, Any], Callable[[float], None]], Any]] = {
    "sensitivity_rows": _unit_sensitivity_rows,
    "comparison_kpis": _unit_comparison_kpis,
    "sweep_slice": _unit_sweep_slice,
    "sweep_grid_block": _unit_sweep_grid_block,
    "goal_inversion": _unit_goal_inversion,
    "driver_importance": _unit_driver_importance,
}

#: Public view of the registered unit-kind names.
UNIT_KINDS = tuple(sorted(_UNIT_RUNNERS))


def run_unit(
    manager: ModelManager,
    kind: str,
    payload: dict[str, Any],
    checkpoint: Callable[[float], None],
) -> Any:
    """Execute one work unit against a hydrated model manager.

    ``checkpoint`` is the worker-process callback: it publishes the unit's
    completed fraction back to the parent and raises :class:`UnitCancelled`
    once the group's shared cancel flag flips.
    """
    try:
        runner = _UNIT_RUNNERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown work-unit kind {kind!r}; registered kinds: {', '.join(UNIT_KINDS)}"
        ) from None
    with trace.span("score", unit_kind=kind):
        return runner(manager, payload, checkpoint)
