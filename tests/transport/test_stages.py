"""The stage-kernel layer's dispatch primitive.

``group_by_value`` splits a bank by material so each banked XS lookup runs
over one homogeneous group; these tests pin its stability contract.
"""

import numpy as np
import pytest

from repro.transport.stages import group_by_value


class TestGroupByValueStability:
    """The material-dispatch primitive must be *stable*: positions
    ascending within each group, groups in ascending value order — the
    invariant that makes per-group RNG consumption order-independent of
    how the bank was permuted upstream."""

    def test_positions_ascending_within_groups(self):
        values = np.array([2, 0, 1, 2, 0, 2, 1, 0])
        groups = dict(
            (v, pos.tolist()) for v, pos in group_by_value(values)
        )
        assert groups == {0: [1, 4, 7], 1: [2, 6], 2: [0, 3, 5]}

    def test_group_order_ascending(self):
        values = np.array([5, 3, 9, 3, 5])
        order = [v for v, _ in group_by_value(values)]
        assert order == sorted(order) == [3, 5, 9]

    def test_matches_unique_mask_idiom(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 7, size=200)
        via_group = {v: pos for v, pos in group_by_value(values)}
        for v in np.unique(values):
            np.testing.assert_array_equal(
                via_group[int(v)], np.flatnonzero(values == v)
            )

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_sizes(self, n):
        values = np.arange(n)
        groups = list(group_by_value(values))
        assert len(groups) == n
        if n:
            v, pos = groups[0]
            assert v == 0 and pos.tolist() == [0]

    def test_group_sets_invariant_under_permutation(self):
        """Permuting the bank permutes positions, but each group's *set*
        of bank indices — hence its RNG streams — is unchanged once
        mapped back through the permutation (the sorted-bank argument)."""
        rng = np.random.default_rng(3)
        values = rng.integers(0, 5, size=64)
        perm = rng.permutation(64)
        base = {v: set(pos.tolist()) for v, pos in group_by_value(values)}
        permuted = {
            v: set(perm[pos].tolist())
            for v, pos in group_by_value(values[perm])
        }
        assert base == permuted
