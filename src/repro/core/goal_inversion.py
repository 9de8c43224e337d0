"""Goal inversion (seeking) analysis (functionality 3, paper view (I)).

Goal inversion answers "what driver changes achieve my KPI goal?".  The user
either freely optimises the KPI (maximise / minimise) or names a target value;
SystemD then "uses Scikit-Optimize's Bayesian optimizer to learn values of the
drivers that attain the desired KPI value (maximum, minimum, or target)" and
returns the best attainable KPI, the model confidence, and a (not necessarily
unique) set of driver values achieving it.

We search over *perturbation magnitudes* of the selected drivers — the same
parametrisation the UI's perturbation view exposes — using the Bayesian
optimiser from :mod:`repro.optimize` (or a named baseline for the ablation
benchmark).  Constrained analysis (functionality 4) reuses this machinery with
user-supplied bounds; see :mod:`repro.core.constrained`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from ..optimize import (
    ConstraintSet,
    Real,
    Space,
    gp_minimize,
    grid_minimize,
    random_minimize,
)
from .model_manager import ModelManager
from .perturbation import PerturbationSet
from .results import GoalInversionResult

__all__ = ["invert_goal", "GOALS", "DEFAULT_PERTURBATION_RANGE"]

#: Supported goal kinds.
GOALS = ("maximize", "minimize", "target")

#: Default perturbation range (percent) for drivers without explicit bounds.
DEFAULT_PERTURBATION_RANGE = (-50.0, 100.0)

_TARGET_TOLERANCE = 1e-6


def _build_space(
    drivers: Sequence[str],
    bounds: Mapping[str, tuple[float, float]],
    default_range: tuple[float, float],
) -> Space:
    dimensions = []
    for driver in drivers:
        low, high = bounds.get(driver, default_range)
        if low >= high:
            raise ValueError(
                f"invalid bounds for driver {driver!r}: low={low} must be < high={high}"
            )
        dimensions.append(Real(low, high, name=driver))
    return Space(dimensions)


def _with_progress(
    objective: Callable[[Sequence[float]], float],
    checkpoint: Callable[[float], None],
    n_calls: int,
) -> Callable[[Sequence[float]], float]:
    """Wrap an objective so each evaluation publishes a progress checkpoint.

    The wrapper evaluates first and checkpoints after, so cancellation lands
    between candidate evaluations and the values the optimiser sees are
    untouched.
    """
    budget = max(1, int(n_calls))
    evaluated = 0

    def wrapped(point: Sequence[float]) -> float:
        nonlocal evaluated
        value = objective(point)
        evaluated += 1
        checkpoint(min(1.0, evaluated / budget))
        return value

    return wrapped


def invert_goal(
    manager: ModelManager,
    *,
    goal: str = "maximize",
    target_value: float | None = None,
    drivers: Sequence[str] | None = None,
    bounds: Mapping[str, tuple[float, float]] | None = None,
    constraints: ConstraintSet | None = None,
    mode: str = "percentage",
    default_range: tuple[float, float] = DEFAULT_PERTURBATION_RANGE,
    n_calls: int = 40,
    optimizer: str = "bayesian",
    random_state: int | None = 0,
    checkpoint: Callable[[float], None] | None = None,
    executor=None,
) -> GoalInversionResult:
    """Find driver perturbations that achieve a KPI goal.

    Parameters
    ----------
    manager:
        The session's model manager (its model is re-evaluated at every
        candidate perturbation).
    goal:
        ``"maximize"``, ``"minimize"``, or ``"target"``.
    target_value:
        Required when ``goal == "target"``: the KPI value to hit.
    drivers:
        Drivers the optimiser may change (default: all model drivers).
    bounds:
        Per-driver ``(low, high)`` perturbation bounds; drivers not listed use
        ``default_range``.  This is how constrained analysis narrows the
        search.
    constraints:
        Additional linear/callable constraints over the perturbation vector.
    mode:
        Perturbation mode (``"percentage"`` or ``"absolute"``).
    default_range:
        Bounds for unconstrained drivers.
    n_calls:
        Objective-evaluation budget.
    optimizer:
        ``"bayesian"`` (default), ``"random"``, or ``"grid"`` — the latter two
        exist for the ablation benchmark.
    random_state:
        Seed for reproducibility.
    checkpoint:
        Optional progress/cancellation callback, called with the completed
        fraction after every objective evaluation.  The optimiser probes the
        identical candidate sequence either way, so results are bitwise equal
        with and without a checkpoint.
    executor:
        Optional process executor; the whole (unconstrained) inversion then
        runs as one work unit in a worker process — the optimiser is
        sequential, so the win is moving the model evaluations off the GIL,
        not splitting them.  Seeded optimisers reproduce the identical
        candidate sequence in the worker, so results are bitwise equal.
        Constrained runs stay in-process (:class:`ConstraintSet` may carry
        arbitrary callables that do not pickle).

    Returns
    -------
    GoalInversionResult
        Best KPI found, the recommended per-driver changes, and the model
        confidence.
    """
    if goal not in GOALS:
        raise ValueError(f"goal must be one of {GOALS}, got {goal!r}")
    if goal == "target" and target_value is None:
        raise ValueError("target_value is required when goal='target'")
    chosen = list(drivers) if drivers is not None else list(manager.drivers)
    unknown = [d for d in chosen if d not in manager.drivers]
    if unknown:
        raise ValueError(f"unknown drivers for goal inversion: {unknown}")
    if not chosen:
        raise ValueError("goal inversion needs at least one driver to vary")
    if optimizer not in ("bayesian", "random", "grid"):
        raise ValueError(
            f"unknown optimizer {optimizer!r}; expected 'bayesian', 'random', or 'grid'"
        )

    space = _build_space(chosen, dict(bounds or {}), default_range)

    if executor is not None and constraints is None:
        if checkpoint is not None:
            checkpoint(0.0)
        payload = {
            "goal": goal,
            "target_value": float(target_value) if target_value is not None else None,
            "drivers": chosen,
            "bounds": {
                driver: [float(low), float(high)]
                for driver, (low, high) in (bounds or {}).items()
            },
            "mode": mode,
            "default_range": [float(default_range[0]), float(default_range[1])],
            "n_calls": int(n_calls),
            "optimizer": optimizer,
            "random_state": random_state,
        }
        [result] = executor.run_units(
            manager, [("goal_inversion", payload)], checkpoint=checkpoint
        )
        return result

    original_kpi = manager.baseline_kpi()

    def kpi_of(point: Sequence[float]) -> float:
        perturbations = PerturbationSet.from_mapping(
            dict(zip(chosen, (float(v) for v in point))), mode=mode
        )
        # the optimiser probes sequentially, so each candidate is a single
        # delta evaluation against the cached baseline
        return manager.predict_kpi_perturbed(perturbations)

    if goal == "maximize":
        objective = lambda point: -kpi_of(point)  # noqa: E731
    elif goal == "minimize":
        objective = kpi_of
    else:
        objective = lambda point: abs(kpi_of(point) - float(target_value))  # noqa: E731

    if checkpoint is not None:
        checkpoint(0.0)
        objective = _with_progress(objective, checkpoint, n_calls)

    if optimizer == "bayesian":
        result = gp_minimize(
            objective,
            space,
            n_calls=n_calls,
            constraints=constraints,
            random_state=random_state,
        )
    elif optimizer == "random":
        result = random_minimize(
            objective, space, n_calls=n_calls, constraints=constraints, random_state=random_state
        )
    elif optimizer == "grid":
        points_per_dim = max(2, int(round(n_calls ** (1.0 / len(chosen)))))
        result = grid_minimize(
            objective,
            space,
            points_per_dim=points_per_dim,
            max_calls=n_calls,
            constraints=constraints,
        )
    else:
        raise ValueError(
            f"unknown optimizer {optimizer!r}; expected 'bayesian', 'random', or 'grid'"
        )

    best_changes = {driver: float(value) for driver, value in zip(chosen, result.x)}
    best_kpi = kpi_of(result.x)
    achieved_target = None
    if goal == "target":
        achieved_target = bool(
            abs(best_kpi - float(target_value))
            <= max(_TARGET_TOLERANCE, 0.01 * abs(float(target_value)))
        )

    constraint_descriptions = list((constraints or ConstraintSet()).describe())
    constraint_descriptions.extend(
        f"{driver} in [{low:g}, {high:g}] ({mode})"
        for driver, (low, high) in (bounds or {}).items()
    )

    return GoalInversionResult(
        kpi=manager.kpi.name,
        goal=goal,
        target_value=float(target_value) if target_value is not None else None,
        best_kpi=best_kpi,
        original_kpi=original_kpi,
        uplift=best_kpi - original_kpi,
        driver_changes=best_changes,
        mode=mode,
        model_confidence=manager.confidence(),
        constraints=constraint_descriptions,
        n_evaluations=result.n_calls,
        achieved_target=achieved_target,
    )
