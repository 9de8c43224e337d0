"""The grid kernel: one delta pass over the forest scores an entire scenario grid.

Looping :func:`~repro.core.sensitivity.run_sensitivity` over a scenario grid
evaluates the forest once per scenario, although scenarios only rewrite the
few swept columns.  This kernel scores the *whole cartesian grid* at once,
starting from the manager's memoised
:class:`~repro.ml.kernel.ForestBaseline` (the baseline leaf of every
``(tree, row)`` pair) and the per-node feature boxes of
:meth:`~repro.ml.kernel.ForestKernel.boxes`:

1. **Delta filter.**  A pair whose baseline leaf box ``lo < v <= hi`` holds
   both the smallest and the largest perturbed level of every swept column
   holds every level in between, so it reaches its baseline leaf in every
   scenario and needs no traversal.  Only the other pairs are propagated,
   from their tree's root.
2. **Box propagation with per-lane decisions.**  Percentage and absolute
   perturbations are monotone in the amount (clipping preserves this), so
   with an axis's amounts sorted ascending, the levels that send a row left
   at a node testing that axis's column form a prefix or a suffix of the
   level order.  A traversal lane therefore carries one level interval per
   axis (a *box* of the grid) rather than one slot per scenario, and steps
   down one level at a time like
   :meth:`~repro.ml.kernel.ForestKernel._descend`.  At a node on an unswept
   column the lane decides with its row's baseline value, the same gather
   ``_descend`` uses.  At a node on a swept column it compares its row's
   perturbed levels with the threshold: it keeps the left part of its box
   and forks the right part off as a new lane when both are non-empty.
   Each lane verifies that its left levels really are a prefix or a suffix;
   on any violation the kernel returns ``None`` rather than risk a wrong
   answer.
3. **Materialisation.**  Every leaf box unrolls into runs of consecutive
   grid cells; the axis order is picked so the boxes unroll into few runs.
   An unmoved pair is one run over its whole row at the baseline leaf.
   Sorted by (tree, first cell), each tree's runs lay out its payload
   surface with one ``np.repeat``, and trees accumulate in ensemble order.

The kernel gathers the very leaf payload floats a per-scenario traversal
reads and adds them in the same order, so every ``(scenario, row)``
prediction, and every KPI aggregated from them, matches
:meth:`~repro.core.model_manager.ModelManager.predict_kpi_perturbed` bit for
bit.  The planner scores through chunked
:meth:`~repro.core.model_manager.ModelManager.predict_kpi_batch` whenever the
kernel does not apply (non-forest models, sampled or constrained spaces); the
KPI values are identical either way, only the speed differs.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

import numpy as np

from ..core.model_manager import ModelManager
from .space import ScenarioSpace

__all__ = ["grid_sweep_kpis", "grid_kernel_applies", "MAX_GRID_CELLS", "MAX_AXIS_LEVELS"]

#: Upper bound on ``n_scenarios × n_rows`` grid cells the kernel will
#: materialise (the prediction surface is one float64 per cell).
MAX_GRID_CELLS = 32_000_000

#: Levels per axis the kernel supports (each lane at a swept node compares
#: all of its row's levels); longer axes fall back to the chunked path.
MAX_AXIS_LEVELS = 32_000


def grid_kernel_applies(manager: ModelManager, space: ScenarioSpace) -> bool:
    """Whether :func:`grid_sweep_kpis` will score this (manager, space) pair.

    Requires an exhaustive unconstrained space small enough to materialise
    and a forest baseline (memoised on first use).  The kernel itself may
    still decline in one rare case, an interval-property violation, which
    this probe does not predict.
    """
    if space.sample is not None or space.constraints:
        return False
    sizes = [len(axis.amounts) for axis in space.axes]
    if max(sizes) > MAX_AXIS_LEVELS:
        return False
    if int(np.prod(sizes)) * manager.frame.n_rows > MAX_GRID_CELLS:
        return False
    return manager.forest_baseline() is not None


def _grid_order(sizes: list[int], box_lo: np.ndarray, box_hi: np.ndarray) -> list[int]:
    """Axes outermost first, chosen so the boxes unroll into few runs.

    A box unrolls into the product of its widths on the axes outside its
    innermost partial axis.  Starting from the axes the boxes most often
    span whole innermost, pairwise swaps are kept while they lower the run
    count of a sample of the boxes.
    """
    step = max(1, box_lo.shape[1] // 4096)
    width = box_hi[:, ::step] - box_lo[:, ::step]
    partial = width < np.array(sizes)[:, None]

    def runs(order: list[int]) -> float:
        total = np.ones(width.shape[1])
        split_inside = np.zeros(width.shape[1], dtype=bool)
        for axis in reversed(order):
            total *= np.where(split_inside, width[axis], 1)
            split_inside |= partial[axis]
        return float(total.sum())

    order = sorted(range(len(sizes)), key=lambda axis: (-partial[axis].sum(), sizes[axis]))
    best = runs(order)
    improved = True
    while improved:
        improved = False
        for i, j in itertools.combinations(range(len(order)), 2):
            trial = list(order)
            trial[i], trial[j] = trial[j], trial[i]
            count = runs(trial)
            if count < best:
                order, best, improved = trial, count, True
    return order


def grid_sweep_kpis(
    manager: ModelManager,
    space: ScenarioSpace,
    *,
    checkpoint: Callable[[float], None] | None = None,
    progress_share: float = 1.0,
) -> np.ndarray | None:
    """KPIs of every grid scenario in enumeration order, or None if the
    kernel does not apply.

    ``checkpoint`` is called after each tree with the completed fraction
    scaled by ``progress_share``.
    """
    if not grid_kernel_applies(manager, space):
        return None
    base = manager.forest_baseline()
    kernel = manager.model.kernel_
    X = base.matrix
    n_rows, n_features = X.shape
    sizes = [len(axis.amounts) for axis in space.axes]
    n_axes = len(sizes)
    n_scenarios = int(np.prod(sizes))

    # --- per-axis perturbed levels, (n_rows, n_levels) ascending by amount -- #
    # `orders` maps sorted level positions back to enumeration order at the end
    columns = [manager.drivers.index(axis.driver) for axis in space.axes]
    orders = [np.argsort(np.asarray(axis.amounts, dtype=np.float64)) for axis in space.axes]
    levels = [
        np.stack(
            [axis.perturbation(axis.amounts[i]).apply_to_values(X[:, column]) for i in order],
            axis=1,
        )
        for axis, column, order in zip(space.axes, columns, orders)
    ]

    # --- delta filter: pairs whose leaf box holds every level stay put ----- #
    lo, hi = kernel.boxes()
    moved = np.zeros(base.leaves.shape, dtype=bool)
    for column, values in zip(columns, levels):
        if column < lo.shape[0]:  # no split tests a later column
            moved |= values.min(axis=1) <= lo[column].take(base.leaves)
            moved |= values.max(axis=1) > hi[column].take(base.leaves)
    pairs = np.flatnonzero(moved)  # tree-major: pair = tree * n_rows + row

    # --- box propagation of the moved pairs, from their roots -------------- #
    # One lane per (pair, box), advanced one level per step like
    # ForestKernel._descend (leaves self-loop).  A lane at a node on a swept
    # column keeps the left part of its box and forks the right part off as a
    # new lane when both are non-empty.  Lane j is column j of `lanes`: its
    # node, data row, then the box's level bounds [lo, hi) per axis in rows
    # LO + axis and HI + axis; columns past `n_lanes` are spare capacity.
    LO, HI = 2, 2 + n_axes
    axis_of_feature = np.full(n_features + 1, -1, dtype=np.intp)  # [-1]: leaves
    axis_of_feature[columns] = np.arange(n_axes)
    position_weights = [np.stack([np.ones(size), np.arange(size)], axis=1) for size in sizes]
    flat = np.ascontiguousarray(X).ravel()
    n_lanes = pairs.size
    lanes = np.empty((2 + 2 * n_axes, 2 * n_lanes + 1024), dtype=np.intp)
    lanes[0, :n_lanes] = kernel.roots[pairs // n_rows]
    lanes[1, :n_lanes] = pairs % n_rows
    lanes[LO:HI, :n_lanes] = 0
    lanes[HI:, :n_lanes] = np.array(sizes)[:, None]
    for _ in range(kernel.max_depth):
        node, row = lanes[0, :n_lanes], lanes[1, :n_lanes]
        lane_axis = axis_of_feature[kernel.feature[node]]
        go_left = flat[row * n_features + kernel._nav_feature[node]] <= kernel._nav_threshold[node]
        next_node = np.where(go_left, kernel._nav_left[node], kernel._nav_right[node])
        forks = []
        for axis_index, n_levels in enumerate(sizes):
            split = np.flatnonzero(lane_axis == axis_index)
            if not split.size:
                continue
            split_node = node[split]
            left = levels[axis_index][row[split]] <= kernel.threshold[split_node][:, None]
            # n levels go left, at positions summing to s: the left levels are
            # a prefix iff s is the least sum of n positions, a suffix iff it
            # is the greatest (both for n = 0 or n = n_levels)
            n_left, position_sum = (left.astype(np.float64) @ position_weights[axis_index]).T
            prefix = position_sum == n_left * (n_left - 1) / 2
            suffix = position_sum == n_left * (2 * n_levels - n_left - 1) / 2
            if not (prefix | suffix).all():
                return None
            # levels below the cut go left for a prefix and right for a suffix
            cut = np.where(prefix, n_left, n_levels - n_left).astype(np.intp)
            low = lanes[LO + axis_index, split] < cut
            high = cut < lanes[HI + axis_index, split]
            has_left = np.where(prefix, low, high)
            next_node[split] = np.where(has_left, kernel.left[split_node], kernel.right[split_node])
            # a box with levels on both sides of the cut forks: the lane keeps
            # the left part, a new lane takes the right part
            both = low & high
            if not both.any():
                continue
            forked, cut, prefix = split[both], cut[both], prefix[both]
            fork = lanes[:, forked]
            fork[0] = kernel.right[split_node[both]]
            lanes[LO + axis_index, forked] = np.where(prefix, fork[LO + axis_index], cut)
            lanes[HI + axis_index, forked] = np.where(prefix, cut, fork[HI + axis_index])
            fork[LO + axis_index] = np.where(prefix, cut, fork[LO + axis_index])
            fork[HI + axis_index] = np.where(prefix, fork[HI + axis_index], cut)
            forks.append(fork)
        lanes[0, :n_lanes] = next_node
        for fork in forks:
            if n_lanes + fork.shape[1] > lanes.shape[1]:
                lanes = np.concatenate([lanes, np.empty_like(lanes)], axis=1)
            lanes[:, n_lanes : n_lanes + fork.shape[1]] = fork
            n_lanes += fork.shape[1]
    node, row = lanes[0, :n_lanes], lanes[1, :n_lanes]
    box_lo, box_hi = lanes[LO:HI, :n_lanes], lanes[HI:, :n_lanes]

    # --- leaf boxes → runs of consecutive cells ----------------------------- #
    # Grid cells are laid out (row, g_0, ..., g_{k-1}) in `grid_axes` order.
    # A box is contiguous over the inner axes it spans whole plus the next one
    # in, so it unrolls into one run per cell of the axes outside of those.
    grid_axes = _grid_order(sizes, box_lo, box_hi)
    strides = [int(np.prod([sizes[axis] for axis in grid_axes[q + 1 :]])) for q in range(n_axes)]
    unrolls = {}
    split_inside = np.zeros(node.shape[0], dtype=bool)
    for axis in reversed(grid_axes):
        unrolls[axis] = split_inside
        split_inside = split_inside | (box_hi[axis] - box_lo[axis] < sizes[axis])
    # records in (tree, row) order, so each tree's runs come out grouped and
    # nearly in cell order; a run's key is tree * n_cells + its first cell
    n_cells = n_scenarios * n_rows
    tree = np.searchsorted(kernel.roots, node, side="right") - 1
    record = np.argsort(tree * n_rows + row, kind="stable")
    run_key = tree[record] * n_cells + row[record] * n_scenarios
    for axis, stride in zip(grid_axes, strides):
        lo_a = box_lo[axis, record]
        if unrolls[axis].any():
            width = np.where(unrolls[axis][record], box_hi[axis, record] - lo_a, 1)
            expanded = np.repeat(np.arange(record.shape[0]), width)
            lo_a = lo_a[expanded] + np.arange(expanded.shape[0]) - np.repeat(
                np.cumsum(width) - width, width
            )
            run_key, record = run_key[expanded], record[expanded]
        run_key += lo_a * stride

    # --- per-tree materialisation, accumulated in ensemble order ----------- #
    # Each row's cells are covered by runs: the runs of its moved boxes, or
    # one whole-row run at the baseline leaf.  Sorted by (tree, first cell),
    # each run lasts until the next one starts, so one np.repeat lays out a
    # tree's payload surface.
    # `positive_column` mirrors ModelManager.predict_rows_matrix exactly.
    class_list = list(manager.model.classes_)
    positive_column = class_list.index(1.0) if 1.0 in class_list else len(class_list) - 1
    leaf_payload = np.ascontiguousarray(kernel.value[:, positive_column])
    still = np.flatnonzero(~moved)  # tree-major: pair = tree * n_rows + row
    run_key = np.concatenate([run_key, still // n_rows * n_cells + still % n_rows * n_scenarios])
    run_payload = np.concatenate(
        [np.take(leaf_payload, node)[record], np.take(leaf_payload, base.leaves.reshape(-1)[still])]
    )
    by_key = np.argsort(run_key, kind="stable")
    run_key, run_payload = run_key[by_key], run_payload[by_key]
    run_length = np.diff(run_key, append=kernel.n_trees * n_cells)
    tree_bounds = np.searchsorted(run_key, np.arange(kernel.n_trees + 1) * n_cells)
    aggregate = np.zeros(n_cells)
    for tree_index in range(kernel.n_trees):
        runs = slice(tree_bounds[tree_index], tree_bounds[tree_index + 1])
        aggregate += np.repeat(run_payload[runs], run_length[runs])
        if checkpoint is not None:
            checkpoint(progress_share * (tree_index + 1) / kernel.n_trees)

    predictions = aggregate / kernel.n_trees

    # --- back to enumeration order, then aggregate per scenario ------------ #
    # one (scenario, row) gather relabels (sorted level, reordered axis) grid
    # positions into the space's enumeration order; values only move, no
    # arithmetic happens
    scenario_rows = np.ascontiguousarray(predictions.reshape(n_rows, n_scenarios).T)
    inverse = [np.argsort(order, kind="stable") for order in orders]
    grid_stride_of_axis = {axis: strides[i] for i, axis in enumerate(grid_axes)}
    combo = np.zeros(1, dtype=np.intp)
    for axis_index in range(n_axes):
        contribution = inverse[axis_index] * grid_stride_of_axis[axis_index]
        combo = (combo[:, None] + contribution[None, :]).reshape(-1)
    scenario_rows = scenario_rows[combo]
    return np.array(
        [manager.kpi.aggregate(scenario_rows[index]) for index in range(n_scenarios)]
    )
