"""The native DP forward pass must equal the NumPy one bit for bit.

``repro_dp_forward`` in the compiled kernel fills the same int64 table
as :func:`repro.optimal.general._forward_numpy`, every ``t`` layer and
every sentinel entry included.  Cases that need the kernel are skipped
where it does not build; the fallback tests run everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import _native
from repro.errors import OptimizationError
from repro.optimal import general
from repro.optimal.context import INT_INF, DemandContext
from repro.optimal.general import (
    _forward,
    _forward_numpy,
    _native_forward_into,
    optimal_static_cost_table,
    optimal_static_tree,
)

needs_kernel = pytest.mark.skipif(
    not _native.available(), reason="compiled kernel unavailable"
)


def random_demand(rng, n, hi=6):
    d = rng.integers(0, hi, (n, n))
    np.fill_diagonal(d, 0)
    return d


def tree_shape(result):
    """Node-for-node fingerprint: identifier, routing array, children."""
    out = []

    def walk(node):
        kids = [c.nid if c is not None else None for c in node.children]
        out.append((node.nid, tuple(node.routing), tuple(kids)))
        for child in node.children:
            if child is not None:
                walk(child)

    walk(result.tree.root)
    return out


@needs_kernel
class TestNativeEqualsNumpy:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 26, 60])
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_tables_bit_identical(self, n, k, rng):
        d = random_demand(rng, n, hi=50)
        native, _ = _forward(DemandContext.from_demand(d), k)
        numpy_b, _ = _forward_numpy(DemandContext.from_demand(d), k)
        assert native.shape == numpy_b.shape == (k + 1, n + 2, n + 1)
        assert native.dtype == np.int64
        assert np.array_equal(native, numpy_b)

    @pytest.mark.parametrize("n", [3, 7])
    def test_arity_above_n(self, n, rng):
        d = random_demand(rng, n)
        k = n + 3
        native, _ = _forward(DemandContext.from_demand(d), k)
        numpy_b, _ = _forward_numpy(DemandContext.from_demand(d), k)
        assert np.array_equal(native, numpy_b)

    @pytest.mark.parametrize("k", [2, 5])
    def test_large_magnitudes_stay_exact(self, k, rng):
        # Entries near 2^47: sums pass float64's 2^53 exact range.
        n = 12
        d = rng.integers(1 << 46, 1 << 47, (n, n), dtype=np.int64)
        np.fill_diagonal(d, 0)
        native, _ = _forward(DemandContext.from_demand(d), k)
        numpy_b, _ = _forward_numpy(DemandContext.from_demand(d), k)
        assert native[1, 0, n] > (1 << 53)
        assert np.array_equal(native, numpy_b)

    def test_offers_the_reuse_prefix(self, rng):
        ctx = DemandContext.from_demand(random_demand(rng, 12))
        b, _ = _forward(ctx, 4)
        length, prefix = ctx.reuse_for(4)
        assert length == 4
        assert np.array_equal(prefix, b[1][:, :5])


@needs_kernel
class TestBufferChecks:
    """The C side trusts its buffers; Python rejects bad ones first."""

    def setup_method(self):
        self.lib = _native.load_kernel()
        self.w = np.zeros((5, 5), dtype=np.int64)

    def test_good_buffers_fill_the_table(self):
        table = np.zeros((3, 5, 6), dtype=np.int64)
        _native_forward_into(self.lib, self.w, table)
        assert table[0].min() == INT_INF
        assert (table[1:, 0, :] == 0).all()

    def test_rejects_non_int64_table(self):
        table = np.zeros((3, 5, 6), dtype=np.float64)
        with pytest.raises(OptimizationError, match="int64 table"):
            _native_forward_into(self.lib, self.w, table)

    def test_rejects_non_contiguous_table(self):
        table = np.zeros((3, 6, 5), dtype=np.int64).transpose(0, 2, 1)
        with pytest.raises(OptimizationError, match="C-contiguous"):
            _native_forward_into(self.lib, self.w, table)

    def test_rejects_non_contiguous_w(self):
        w = np.zeros((5, 5), dtype=np.int64).T
        with pytest.raises(OptimizationError, match="int64 w"):
            _native_forward_into(self.lib, w, np.zeros((3, 5, 6), np.int64))

    @pytest.mark.parametrize(
        "shape", [(3, 5, 5), (3, 4, 6), (2, 5, 6), (3, 30)]
    )
    def test_rejects_mismatched_shapes(self, shape):
        with pytest.raises(OptimizationError, match="native DP"):
            _native_forward_into(
                self.lib, self.w, np.zeros(shape, dtype=np.int64)
            )

    def test_nonzero_return_raises(self):
        class FailingLib:
            @staticmethod
            def repro_dp_forward(*args):
                return 1

        with pytest.raises(OptimizationError, match="failed"):
            _native_forward_into(
                FailingLib, self.w, np.zeros((3, 5, 6), dtype=np.int64)
            )


class TestFallback:
    """Without the kernel the NumPy forward pass gives the same answer."""

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_same_cost_and_tree_without_kernel(self, k, rng, monkeypatch):
        d = random_demand(rng, 30)
        with_default = optimal_static_tree(d, k, context=DemandContext.from_demand(d))

        def kernel_called(*args):  # pragma: no cover - must not run
            raise AssertionError("native forward called without a kernel")

        monkeypatch.setattr(general._native, "load_kernel", lambda: None)
        monkeypatch.setattr(general, "_native_forward_into", kernel_called)
        fallback = optimal_static_tree(d, k, context=DemandContext.from_demand(d))
        assert fallback.cost == with_default.cost
        assert fallback.cost == optimal_static_cost_table(
            d, k, context=DemandContext.from_demand(d)
        )
        assert tree_shape(fallback) == tree_shape(with_default)
