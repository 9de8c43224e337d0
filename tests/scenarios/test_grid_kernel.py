"""Grid-kernel property tests: sweep KPIs equal a per-scenario traversal bit for bit.

The reference scores every scenario of the space with a full forest traversal
(no baseline, no grid), the seed's per-scenario cost.  The grid kernel must
reproduce its KPIs exactly, both for a whole space and for the head-axis
blocks the process pool scores as ``sweep_grid_block`` units.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.kpi import KPI
from repro.core.model_manager import ModelManager
from repro.core.perturbation import Perturbation
from repro.core.sensitivity import split_ranges
from repro.engine.units import run_unit
from repro.frame import Column, DataFrame
from repro.scenarios import Axis, ScenarioSpace, run_sweep
from repro.scenarios.kernel import grid_sweep_kpis


@st.composite
def managers(draw) -> ModelManager:
    """A fitted forest-classifier manager (depth 1-10, root-only trees too)."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n_rows = draw(st.integers(4, 60))
    n_features = draw(st.integers(1, 4))
    X = rng.normal(size=(n_rows, n_features)) * draw(st.sampled_from([1.0, 5.0, 50.0]))
    # integer data puts split thresholds on exact halves, so absolute levels
    # computed from them land exactly on a threshold
    X = np.round(X, draw(st.sampled_from([0, 0, 1, 6])))
    zeros = draw(st.integers(0, n_features))  # columns with many exact zeros
    X[:, :zeros] *= rng.random((n_rows, zeros)) < 0.5
    if draw(st.booleans()):  # all-negative columns turn prefixes into suffixes
        X = -np.abs(X)
    elif draw(st.booleans()):
        X = np.abs(X)
    constant = draw(st.booleans())  # a constant target makes root-only trees
    won = np.zeros(n_rows, dtype=bool) if constant else rng.random(n_rows) < 0.5
    columns = {f"d{j}": X[:, j] for j in range(n_features)}
    columns["won"] = Column("won", won, dtype="bool")
    params = {
        "n_estimators": draw(st.integers(1, 5)),
        "max_depth": draw(st.integers(1, 10)),
        "min_samples_split": draw(st.sampled_from([2, 2, 8, n_rows + 1])),
        "max_features": None,
    }
    manager = ModelManager(
        DataFrame(columns),
        KPI(name="won", kind="discrete", aggregation="rate"),
        [f"d{j}" for j in range(n_features)],
        model_params=params,
        cv_folds=0,
        random_state=seed % 1000,
    )
    return manager.fit()


@st.composite
def spaces(draw, manager: ModelManager) -> ScenarioSpace:
    """1-3 percentage/absolute axes, some levels landing on split thresholds."""
    kernel = manager.model.kernel_
    X = manager.driver_matrix()
    drivers = draw(
        st.lists(st.sampled_from(manager.drivers), min_size=1, max_size=3, unique=True)
    )
    axes = []
    for driver in drivers:
        column = manager.drivers.index(driver)
        mode = draw(st.sampled_from(["percentage", "absolute"]))
        # percentages below -100% flip signs and hit the clip at zero
        amounts = draw(
            st.lists(st.floats(-250.0, 250.0, allow_nan=False), min_size=1, max_size=5)
        )
        cuts = kernel.threshold[kernel.feature == column]
        if mode == "absolute" and cuts.size and draw(st.booleans()):
            rows = draw(st.lists(st.integers(0, X.shape[0] - 1), min_size=1, max_size=3))
            picks = draw(st.lists(st.integers(0, cuts.size - 1), min_size=1, max_size=3))
            amounts += [float(cuts[p] - X[r, column]) for p, r in zip(picks, rows)]
        axes.append(Axis.values(driver, amounts, mode=mode))
    return ScenarioSpace(axes)


def reference_kpis(manager: ModelManager, space: ScenarioSpace) -> np.ndarray:
    """One full forest traversal per scenario."""
    X = manager.driver_matrix()
    return np.array(
        [
            manager.kpi.aggregate(
                manager.predict_rows_matrix(
                    space.perturbations(scenario).apply_to_matrix(X, manager.drivers)
                )
            )
            for scenario in space.scenarios()
        ]
    )


def head_block(space: ScenarioSpace, lo: int, hi: int) -> ScenarioSpace:
    """Levels ``[lo, hi)`` of the head axis, as ``sweep_grid_block`` cuts them."""
    head = space.axes[0]
    return ScenarioSpace(
        [Axis(driver=head.driver, amounts=head.amounts[lo:hi], mode=head.mode), *space.axes[1:]]
    )


class TestGridKernelProperty:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_grid_kernel_equals_per_scenario_traversal(self, data):
        manager = data.draw(managers())
        space = data.draw(spaces(manager))
        expected = reference_kpis(manager, space).tobytes()
        kpis = grid_sweep_kpis(manager, space)
        assert kpis is not None
        assert kpis.tobytes() == expected
        workers = data.draw(st.integers(1, 4))
        blocks = [
            grid_sweep_kpis(manager, head_block(space, lo, hi))
            for lo, hi in split_ranges(len(space.axes[0].amounts), workers)
        ]
        assert np.concatenate(blocks).tobytes() == expected


def _v_shaped(self, values):
    """A perturbation that is *not* monotone in its amount."""
    return np.asarray(values, dtype=np.float64) * (1.0 + abs(self.amount) / 100.0)


class TestIntervalViolationFallback:
    def test_non_monotone_perturbation_falls_back_to_per_scenario_kpis(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.uniform(1.0, 10.0, 80).round(2)
        frame = DataFrame(
            {
                "x": x,
                "noise": rng.normal(size=80),
                "won": Column("won", x > 5.0, dtype="bool"),
            }
        )
        manager = ModelManager(
            frame,
            KPI(name="won", kind="discrete", aggregation="rate"),
            ["x", "noise"],
            model_params={"n_estimators": 4},
            cv_folds=0,
        ).fit()
        monkeypatch.setattr(Perturbation, "apply_to_values", _v_shaped)
        # +-40% both scale by 1.4 and 0% by 1.0: rows just under a threshold
        # go left only at the middle level, which is no prefix or suffix
        space = ScenarioSpace(
            [Axis.values("x", [-40.0, 0.0, 40.0]), Axis.values("noise", [0.0, 10.0])]
        )
        expected = reference_kpis(manager, space)
        assert grid_sweep_kpis(manager, space) is None
        assert list(run_sweep(manager, space).kpi_values) == list(expected)
        block = run_unit(
            manager,
            "sweep_grid_block",
            {"space": space.to_dict(), "lo": 0, "hi": 3},
            lambda fraction: None,
        )
        assert block.tobytes() == expected.tobytes()
