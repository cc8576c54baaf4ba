"""The native DP forward pass must equal the NumPy one bit for bit.

``repro_dp_forward`` in the compiled kernel fills the same int64 table
as :func:`repro.optimal.general._forward_numpy`, every ``t`` layer and
every sentinel entry included.  The kernel runs the recurrence on an
int32 table when ``w`` is non-negative and ``n * max(w) < 2^29`` and on
an int64 table otherwise; the differential cases straddle that rule so
both paths run.  Cases that need the kernel are skipped where it does
not build; the fallback tests run everywhere.
"""

from __future__ import annotations

import ctypes
import subprocess

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

#: Largest ``n * max(w)`` the kernel still runs on its int32 table.
I32_LIMIT = (1 << 29) - 1


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


def native_table(lib, w, k):
    """The kernel's table for a raw ``w``, as the ``[t, i, L]`` view."""
    n = w.shape[0] - 1
    table = np.empty((k + 1, n + 1, n + 2), dtype=np.int64)
    _native_forward_into(lib, w, table)
    return table.transpose(0, 2, 1)


def numpy_table(w, k):
    """The NumPy oracle's table for a raw ``w`` (no demand behind it)."""
    n = w.shape[0] - 1
    b, _ = _forward_numpy(DemandContext(np.zeros((n, n), np.int64), w), k)
    return b


def range_rule_cases():
    """``{id: (k, w)}`` on both sides of the int32 range rule; constant
    weights push every DP value to its bound ``L * max(w)``."""
    rng = np.random.default_rng(7)
    random_w = rng.integers(0, 1000, (26, 26), dtype=np.int64)
    negative = random_w.copy()
    negative[3, 7] = -(1 << 40)  # small max(w), but no int32 instance
    return {
        # n * max(w) = 2^29 - 1 exactly: the largest int32 instance.
        "at-2^29-1": (3, np.array([[0, I32_LIMIT], [0, 0]], dtype=np.int64)),
        # n = 31, n * max(w) just below 2^29.
        "top-of-int32": (4, np.full((32, 32), I32_LIMIT // 31, np.int64)),
        # n = 32, n * max(w) = 2^29 exactly: the smallest int64 instance.
        "at-2^29": (3, np.full((33, 33), 1 << 24, np.int64)),
        "far-above": (5, np.full((21, 21), 1 << 40, np.int64)),
        "random": (10, random_w),
        "negative-entry": (6, negative),
    }


RANGE_RULE_CASES = range_rule_cases()


@needs_kernel
@pytest.mark.parametrize(
    "k, w", list(RANGE_RULE_CASES.values()), ids=list(RANGE_RULE_CASES)
)
def test_range_rule_boundaries_match_numpy(k, w):
    assert np.array_equal(
        native_table(_native.load_kernel(), w, k), numpy_table(w, k)
    )


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    given = None

if given is not None:

    @st.composite
    def forward_inputs(draw):
        """Random non-negative ``w`` around the range rule, sometimes
        with one negative entry; ``k`` in 2..10 or above ``n``."""
        n = draw(st.integers(min_value=1, max_value=40))
        if draw(st.booleans()):
            k = draw(st.integers(min_value=2, max_value=10))
        else:
            k = max(2, n + draw(st.integers(min_value=1, max_value=3)))
        fit = I32_LIMIT // n  # n * fit <= 2^29 - 1 < n * (fit + 1)
        maxw = draw(st.sampled_from([0, 1, 60, fit, fit + 1, 1 << 40]))
        size = (n + 1) * (n + 1)
        if draw(st.booleans()):
            w = np.full(size, maxw, dtype=np.int64)
        else:
            seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
            rng = np.random.default_rng(seed)
            w = rng.integers(0, maxw, size, dtype=np.int64, endpoint=True)
            w[draw(st.integers(0, size - 1))] = maxw
        if draw(st.integers(min_value=0, max_value=7)) == 0:
            w[draw(st.integers(0, size - 1))] = -draw(
                st.sampled_from([1, max(1, maxw), 1 << 40])
            )
        return k, w.reshape(n + 1, n + 1)

    @needs_kernel
    @given(forward_inputs())
    @settings(max_examples=300, deadline=None)
    def test_property_native_equals_numpy_on_every_entry(inputs):
        k, w = inputs
        assert np.array_equal(
            native_table(_native.load_kernel(), w, k), numpy_table(w, k)
        )


def test_portable_build_matches_numpy(tmp_path):
    """The kernel built with ``-DRK_NO_CLONES`` (no AVX2 clone of the
    forward pass's inner loop) fills the same tables, on both sides of
    the range rule."""
    compiler = _native._find_compiler()
    if compiler is None:
        pytest.skip("no C compiler")
    out = tmp_path / "kernel_portable.so"
    cmd = [
        compiler,
        *_native._CFLAGS,
        "-DRK_NO_CLONES",
        "-o",
        str(out),
        str(_native.kernel_source_path()),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lib = _native._configure(ctypes.CDLL(str(out)))
    for case, (k, w) in RANGE_RULE_CASES.items():
        assert np.array_equal(native_table(lib, w, k), numpy_table(w, k)), case
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 26):
        ctx = DemandContext.from_demand(random_demand(rng, n, hi=50))
        for k in (2, 3, 10):
            assert np.array_equal(
                native_table(lib, ctx.w, k), numpy_table(ctx.w, k)
            )


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
