"""Regression trees on gradient/hessian statistics (XGBoost-style).

Each tree minimises the second-order objective approximation: leaf weight
``w* = −G/(H+λ)`` and split gain

``gain = ½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ``

with exact greedy split search over sorted feature values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TreeParams:
    """Growth hyper-parameters of one tree."""

    max_depth: int = 4
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_gain: float = 1e-12


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0
    gain: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class RegressionTree:
    """One fitted tree plus its per-feature gain accounting."""

    params: TreeParams
    root: _Node | None = None
    feature_gains: dict[int, float] = field(default_factory=dict)

    # -- fitting ---------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        sample_idx: np.ndarray | None = None,
        feature_idx: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Grow the tree on (gradient, hessian) statistics.

        ``sample_idx``/``feature_idx`` restrict the rows/columns considered
        (row subsampling and column subsampling).
        """
        if sample_idx is None:
            sample_idx = np.arange(features.shape[0])
        if feature_idx is None:
            feature_idx = np.arange(features.shape[1])
        self.root = self._grow(features, grad, hess, sample_idx, feature_idx, 0)
        return self

    def _leaf_value(self, g_sum: float, h_sum: float) -> float:
        return -g_sum / (h_sum + self.params.reg_lambda)

    def _grow(
        self,
        features: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        depth: int,
    ) -> _Node:
        g_sum = float(grad[rows].sum())
        h_sum = float(hess[rows].sum())
        node = _Node(value=self._leaf_value(g_sum, h_sum))
        if depth >= self.params.max_depth or len(rows) < 2:
            return node

        best = self._best_split(features, grad, hess, rows, cols, g_sum, h_sum)
        if best is None:
            return node
        gain, feature, threshold, left_rows, right_rows = best
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.gain = gain
        self.feature_gains[int(feature)] = (
            self.feature_gains.get(int(feature), 0.0) + gain
        )
        node.left = self._grow(features, grad, hess, left_rows, cols, depth + 1)
        node.right = self._grow(features, grad, hess, right_rows, cols, depth + 1)
        return node

    def _best_split(
        self,
        features: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        g_total: float,
        h_total: float,
    ):
        """Exact split search, vectorized across *all* candidate features.

        One argsort per column (a single ``axis=0`` call), prefix sums over
        the sorted gradient/hessian matrices, and a single gain matrix —
        the per-feature Python loop lives on as
        :meth:`_best_split_reference` for equivalence testing. Gains are
        accumulated column-wise in the same order as the reference, so the
        chosen split is bitwise identical.
        """
        lam = self.params.reg_lambda
        parent_score = g_total**2 / (h_total + lam)
        g = grad[rows]
        h = hess[rows]
        values = features[np.ix_(rows, cols)]  # (n, F)
        order = np.argsort(values, axis=0, kind="stable")
        v_sorted = np.take_along_axis(values, order, axis=0)
        g_cum = np.cumsum(g[order], axis=0)
        h_cum = np.cumsum(h[order], axis=0)
        # Candidate boundaries: positions where the sorted value changes.
        is_boundary = v_sorted[:-1] < v_sorted[1:]  # (n-1, F)
        if not is_boundary.any():
            return None
        g_left = g_cum[:-1]
        h_left = h_cum[:-1]
        g_right = g_total - g_left
        h_right = h_total - h_left
        valid = (
            is_boundary
            & (h_left >= self.params.min_child_weight)
            & (h_right >= self.params.min_child_weight)
        )
        if not valid.any():
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = (
                0.5
                * (
                    g_left**2 / (h_left + lam)
                    + g_right**2 / (h_right + lam)
                    - parent_score
                )
                - self.params.gamma
            )
        gains[~valid] = -np.inf
        col_best = gains.max(axis=0)
        f_pos = int(np.argmax(col_best))  # ties → first feature, as reference
        if not col_best[f_pos] > self.params.min_gain:
            return None
        k = int(np.argmax(gains[:, f_pos]))  # ties → lowest boundary
        threshold = 0.5 * (v_sorted[k, f_pos] + v_sorted[k + 1, f_pos])
        mask = values[:, f_pos] <= threshold
        return (
            float(gains[k, f_pos]),
            cols[f_pos],
            float(threshold),
            rows[mask],
            rows[~mask],
        )

    def _best_split_reference(
        self,
        features: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        g_total: float,
        h_total: float,
    ):
        """Naive predecessor of :meth:`_best_split`: one sweep per feature.

        Kept (not exported) purely so tests can assert the vectorized
        kernel picks identical splits.
        """
        lam = self.params.reg_lambda
        parent_score = g_total**2 / (h_total + lam)
        best_gain = self.params.min_gain
        best = None
        g = grad[rows]
        h = hess[rows]
        for feature in cols:
            values = features[rows, feature]
            order = np.argsort(values, kind="stable")
            v_sorted = values[order]
            g_cum = np.cumsum(g[order])
            h_cum = np.cumsum(h[order])
            # Candidate boundaries: positions where the value changes.
            change = np.nonzero(v_sorted[:-1] < v_sorted[1:])[0]
            if change.size == 0:
                continue
            g_left = g_cum[change]
            h_left = h_cum[change]
            g_right = g_total - g_left
            h_right = h_total - h_left
            valid = (h_left >= self.params.min_child_weight) & (
                h_right >= self.params.min_child_weight
            )
            if not valid.any():
                continue
            gains = (
                0.5
                * (
                    g_left**2 / (h_left + lam)
                    + g_right**2 / (h_right + lam)
                    - parent_score
                )
                - self.params.gamma
            )
            gains[~valid] = -np.inf
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                boundary = change[k]
                threshold = 0.5 * (v_sorted[boundary] + v_sorted[boundary + 1])
                mask = values <= threshold
                best_gain = float(gains[k])
                best = (
                    best_gain,
                    feature,
                    threshold,
                    rows[mask],
                    rows[~mask],
                )
        return best

    # -- prediction --------------------------------------------------------------

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Leaf values for each row."""
        if self.root is None:
            raise RuntimeError("tree not fitted")
        out = np.empty(features.shape[0])
        # Iterative routing: queue of (node, row indices).
        stack = [(self.root, np.arange(features.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            if node.is_leaf:
                out[rows] = node.value
                continue
            mask = features[rows, node.feature] <= node.threshold
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))
        return out

    def num_leaves(self) -> int:
        if self.root is None:
            return 0
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack.extend((node.left, node.right))
        return count
