"""Flattened numpy kernels for tree and forest prediction.

The what-if hot path re-runs the trained KPI model on every perturbed frame —
sensitivity sweeps, goal inversion, and driver importance all reduce to "score
this matrix again".  Walking a linked :class:`~repro.ml.tree.TreeNode`
structure row by row in Python makes that O(rows × depth) interpreter work per
tree.  The kernels here compile a fitted tree into five contiguous arrays

* ``feature``   — split feature per node (``-1`` marks a leaf),
* ``threshold`` — split threshold per node,
* ``left`` / ``right`` — child node indices,
* ``value``     — leaf payload per node (class-probability vector or mean),

and traverse them iteratively for a whole matrix at once: every iteration
advances all rows that still sit on an internal node by one level, so the
Python-level loop runs O(depth) times instead of O(rows × depth).  The leaf
payloads are the exact arrays the recursive walk would return, so kernel
predictions are bitwise identical to the per-row traversal.

:class:`ForestKernel` stacks per-tree kernel outputs (with the tree-to-forest
class alignment precomputed once) so forest prediction never loops over rows.

Delta evaluation
----------------
A what-if re-scores the baseline matrix with a few columns rewritten, and most
``(tree, row)`` pairs land in the same leaf as before.  Every node has a
feature *box*: ``lo[j]`` is the largest threshold among its ancestors that
turn right on feature ``j`` and ``hi[j]`` the smallest among those that turn
left (``-inf``/``+inf`` when no ancestor tests ``j``).  Because each split
sends ``x[j] <= threshold`` left and everything else right, a row reaches a
leaf exactly when ``lo[j] < x[j] <= hi[j]`` holds for every feature ``j`` —
the box is the conjunction of the comparisons on the root-to-leaf path,
evaluated with the same ``<=`` on the same floats.  Unchanged columns of a
baseline row satisfy their bounds already (the row reached that leaf).  Given
a :class:`ForestBaseline` (the baseline matrix and the leaf of every pair),
:meth:`ForestKernel.predict_proba` / :meth:`ForestKernel.predict` therefore
keep the baseline leaf of every pair whose changed columns still fall inside
the leaf's box and re-traverse only the rest from the root.  Both decisions
reproduce the full traversal's leaf id exactly, so the gathered payloads and
the ensemble-order aggregation — and hence every output bit — are those of
:meth:`ForestKernel._leaf_values`, which stays the reference path and the
path for matrices without a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TreeKernel", "ForestKernel", "ForestBaseline"]


@dataclass(frozen=True)
class TreeKernel:
    """A fitted CART tree compiled to contiguous node arrays.

    Attributes
    ----------
    feature:
        Split feature index per node; ``-1`` for leaves.
    threshold:
        Split threshold per node (unused entries are 0 for leaves).
    left, right:
        Child node indices per node (``-1`` for leaves).
    value:
        Node payload, shape ``(n_nodes, n_outputs)``: class-probability rows
        for classifiers, single-column means for regressors.
    nodes:
        The original :class:`~repro.ml.tree.TreeNode` objects in array order,
        kept so diagnostics (``apply``) can hand back rich node objects.
    max_depth:
        Depth of the deepest leaf (0 for a root-only tree).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    nodes: tuple
    max_depth: int

    @classmethod
    def from_tree(cls, root) -> "TreeKernel":
        """Flatten the node structure rooted at ``root`` (breadth-first).

        Uses an explicit stack so arbitrarily deep trees compile without
        hitting the interpreter recursion limit.
        """
        nodes = [root]
        left: list[int] = [-1]
        right: list[int] = [-1]
        cursor = 0
        while cursor < len(nodes):
            node = nodes[cursor]
            if not node.is_leaf():
                left[cursor] = len(nodes)
                nodes.append(node.left)
                left.append(-1)
                right.append(-1)
                right[cursor] = len(nodes)
                nodes.append(node.right)
                left.append(-1)
                right.append(-1)
            cursor += 1
        feature = np.array(
            [-1 if node.is_leaf() else node.feature for node in nodes], dtype=np.intp
        )
        threshold = np.array([node.threshold for node in nodes], dtype=np.float64)
        value = np.vstack(
            [np.atleast_1d(np.asarray(node.value, dtype=np.float64)) for node in nodes]
        )
        return cls(
            feature=feature,
            threshold=threshold,
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=value,
            nodes=tuple(nodes),
            max_depth=max(node.depth for node in nodes),
        )

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the compiled tree."""
        return int(self.feature.shape[0])

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index reached by every row of ``X``.

        The loop advances all still-routing rows one level per iteration:
        total work is the sum of rows alive at each depth — exactly the work
        of the recursive walk, but with one vectorised step per level.
        """
        index = np.zeros(X.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.feature[index] >= 0)
        while active.size:
            node = index[active]
            go_left = X[active, self.feature[node]] <= self.threshold[node]
            index[active] = np.where(go_left, self.left[node], self.right[node])
            active = active[self.feature[index[active]] >= 0]
        return index

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf payloads for every row, shape ``(n_rows, n_outputs)``."""
        return self.value[self.apply(X)]


@dataclass(frozen=True)
class ForestBaseline:
    """A scored baseline matrix: the input to delta evaluation.

    Attributes
    ----------
    matrix:
        The baseline design matrix, shape ``(n_rows, n_features)``.
    leaves:
        Forest-wide leaf node id reached by every pair, shape
        ``(n_trees, n_rows)``.
    """

    matrix: np.ndarray
    leaves: np.ndarray

    def rows(self, start: int, stop: int) -> "ForestBaseline":
        """The baseline of rows ``[start, stop)`` (views, no copies)."""
        return ForestBaseline(self.matrix[start:stop], self.leaves[:, start:stop])


class ForestKernel:
    """All trees of an ensemble stacked into one set of node arrays.

    The per-tree arrays are concatenated with child indices shifted by each
    tree's node offset, so a single iterative traversal advances every
    ``(tree, row)`` pair at once — the Python-level loop runs O(max depth)
    times for the whole forest, not per tree.  Leaves are rewritten to
    self-loop (dummy feature 0, threshold ``+inf``, both children pointing at
    the leaf itself) so the traversal needs no per-iteration active-pair
    bookkeeping: finished pairs just spin in place until the loop ends.  Leaf
    payloads of classifier trees are scattered into the forest's class order
    at compile time (a bootstrap sample may miss classes, so trees can have
    narrower probability rows than the forest).

    Parameters
    ----------
    kernels:
        One :class:`TreeKernel` per fitted tree.
    class_positions:
        For classifiers: per-tree column positions mapping each tree's local
        class order into the forest's ``classes_``.  ``None`` for regressors.
    n_outputs:
        Width of the aggregated output (number of forest classes, or 1).
    """

    def __init__(
        self,
        kernels: list[TreeKernel],
        class_positions: list[np.ndarray] | None,
        n_outputs: int,
    ) -> None:
        if not kernels:
            raise ValueError("a forest kernel needs at least one tree kernel")
        self.n_trees = len(kernels)
        self.n_outputs = int(n_outputs)
        self.max_depth = max(kernel.max_depth for kernel in kernels)
        offsets = np.cumsum([0] + [kernel.n_nodes for kernel in kernels]).astype(np.intp)
        self.roots = offsets[:-1]
        self.feature = np.concatenate([kernel.feature for kernel in kernels])
        self.threshold = np.concatenate([kernel.threshold for kernel in kernels])
        left_parts, right_parts = [], []
        for kernel, offset in zip(kernels, offsets):
            internal = kernel.feature >= 0
            left = kernel.left.copy()
            right = kernel.right.copy()
            left[internal] += offset
            right[internal] += offset
            left_parts.append(left)
            right_parts.append(right)
        self.left = np.concatenate(left_parts)
        self.right = np.concatenate(right_parts)
        if class_positions is None:
            self.value = np.concatenate([kernel.value for kernel in kernels])
        else:
            self.value = np.zeros((int(offsets[-1]), self.n_outputs))
            for kernel, offset, positions in zip(kernels, offsets, class_positions):
                self.value[offset : offset + kernel.n_nodes][:, positions] = kernel.value
        # self-looping leaf rewrite used by the traversal (see class docstring)
        leaf = self.feature < 0
        node_ids = np.arange(self.feature.shape[0], dtype=np.intp)
        self._nav_feature = np.where(leaf, 0, self.feature)
        self._nav_threshold = np.where(leaf, np.inf, self.threshold)
        self._nav_left = np.where(leaf, node_ids, self.left)
        self._nav_right = np.where(leaf, node_ids, self.right)
        self._boxes: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_classifier(cls, forest) -> "ForestKernel":
        """Compile a fitted :class:`RandomForestClassifier`."""
        kernels = [tree.kernel_ for tree in forest.estimators_]
        positions = [
            np.searchsorted(forest.classes_, tree.classes_) for tree in forest.estimators_
        ]
        return cls(kernels, positions, forest.classes_.shape[0])

    @classmethod
    def from_regressor(cls, forest) -> "ForestKernel":
        """Compile a fitted :class:`RandomForestRegressor`."""
        return cls([tree.kernel_ for tree in forest.estimators_], None, 1)

    def _descend(self, flat: np.ndarray, offsets: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Leaf ids reached from nodes ``index`` by the rows starting at
        ``offsets`` of the raveled matrix ``flat``.

        ``flat`` must be finite (guaranteed by ``check_array``): the self-loop
        rewrite relies on ``x <= +inf`` holding for every feature value.
        """
        for _ in range(self.max_depth):
            go_left = flat[offsets + self._nav_feature[index]] <= self._nav_threshold[index]
            index = np.where(go_left, self._nav_left[index], self._nav_right[index])
        return index

    def _leaf_ids(self, X: np.ndarray) -> np.ndarray:
        """Leaf id per (tree, row), shape ``(n_trees, n_rows)``."""
        n_rows = X.shape[0]
        offsets = np.tile(np.arange(n_rows, dtype=np.intp) * X.shape[1], self.n_trees)
        index = np.repeat(self.roots, n_rows)
        leaves = self._descend(np.ascontiguousarray(X).ravel(), offsets, index)
        return leaves.reshape(self.n_trees, n_rows)

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf payloads per (tree, row), shape ``(n_trees, n_rows, n_outputs)``."""
        return self.value[self._leaf_ids(X)]

    def baseline(self, X: np.ndarray) -> ForestBaseline:
        """Score ``X`` once so later perturbations of it can be delta-evaluated
        (``X`` is kept by reference and must not change)."""
        return ForestBaseline(X, self._leaf_ids(X))

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node feature boxes ``(lo, hi)``, each ``(n_features, n_nodes)``.

        Built once, level by level from the roots: a child copies its parent's
        box and tightens the split feature's bound by the parent's threshold.
        """
        if self._boxes is None:
            shape = (int(self.feature.max()) + 1, self.feature.shape[0])
            lo, hi = np.full(shape, -np.inf), np.full(shape, np.inf)
            level = self.roots
            while level.size:
                parents = level[self.feature[level] >= 0]
                split, cut = self.feature[parents], self.threshold[parents]
                left, right = self.left[parents], self.right[parents]
                level = np.concatenate([left, right])
                lo[:, level] = np.tile(lo[:, parents], 2)
                hi[:, level] = np.tile(hi[:, parents], 2)
                hi[split, left] = np.minimum(hi[split, parents], cut)
                lo[split, right] = np.maximum(lo[split, parents], cut)
            self._boxes = (lo, hi)
        return self._boxes

    def _delta_leaf_ids(self, X: np.ndarray, base: ForestBaseline) -> np.ndarray:
        """``_leaf_ids(X)``, re-traversing only the pairs whose baseline leaf
        box excludes a changed column of ``X``."""
        if X.shape != base.matrix.shape or base.leaves.shape != (self.n_trees, X.shape[0]):
            raise ValueError(
                f"matrix of shape {X.shape} does not match its baseline of shape "
                f"{base.matrix.shape} over {base.leaves.shape[0]} trees"
            )
        leaves = base.leaves
        changed = np.flatnonzero((X != base.matrix).any(axis=0))
        if changed.size:
            lo, hi = self.boxes()
            moved = np.zeros(leaves.shape, dtype=bool)
            for j in changed[changed < lo.shape[0]]:  # no split tests a later column
                column = X[:, j]
                moved |= column <= lo[j].take(leaves)
                moved |= column > hi[j].take(leaves)
            pairs = np.flatnonzero(moved)  # tree-major: pair = tree * n_rows + row
            if pairs.size:
                n_rows, n_features = X.shape
                found = self._descend(
                    np.ascontiguousarray(X).ravel(),
                    pairs % n_rows * n_features,
                    self.roots[pairs // n_rows],
                )
                leaves = leaves.copy()
                leaves.reshape(-1)[pairs] = found
        return leaves

    def _values(self, X: np.ndarray, base: ForestBaseline | None) -> np.ndarray:
        if base is None:
            return self._leaf_values(X)
        return np.take(self.value, self._delta_leaf_ids(X, base), axis=0)

    def predict_proba(self, X: np.ndarray, *, base: ForestBaseline | None = None) -> np.ndarray:
        """Tree-averaged class probabilities, shape ``(n_rows, n_classes)``.

        With ``base`` (a :meth:`baseline` of a matrix of ``X``'s shape), only
        the pairs a changed column moves out of their baseline leaf are
        re-traversed; the result is bitwise identical either way.
        """
        values = self._values(X, base)
        # accumulate per tree in ensemble order so rounding matches the
        # historical sequential aggregation bit for bit
        aggregate = np.zeros((X.shape[0], self.n_outputs))
        for tree_index in range(self.n_trees):
            aggregate += values[tree_index]
        return aggregate / self.n_trees

    def predict(self, X: np.ndarray, *, base: ForestBaseline | None = None) -> np.ndarray:
        """Tree-averaged regression prediction, shape ``(n_rows,)``; ``base``
        as for :meth:`predict_proba`."""
        values = self._values(X, base)
        predictions = np.zeros(X.shape[0])
        for tree_index in range(self.n_trees):
            predictions += values[tree_index, :, 0]
        return predictions / self.n_trees
