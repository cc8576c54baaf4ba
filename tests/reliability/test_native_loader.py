"""Native kernel loader hardening: corrupted caches, injected load failure."""

from __future__ import annotations

import pytest

import repro.core._native as _native
from repro.reliability.faults import FaultPlan, FaultSpec, inject_faults

needs_toolchain = pytest.mark.skipif(
    _native._find_compiler() is None, reason="no C compiler on PATH"
)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache directory + a re-armed loader, both worlds."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    _native._reset_for_tests()
    yield tmp_path / "cache"
    _native._reset_for_tests()


def _cache_entry_path():
    """Where the loader will look for the cached shared object.

    Computed without :func:`load_kernel`, so tests can plant corruption
    *before* this process ever maps the library — the real crash shape
    (a prior process died mid-publish; this one finds the wreckage).
    """
    source = _native.kernel_source_path().read_bytes()
    return _native._so_path(source, _native._find_compiler())


@needs_toolchain
class TestCorruptedCacheRecovery:
    def test_corrupted_cached_so_triggers_rebuild(self, fresh_cache):
        """Garbage in the content-addressed cache must rebuild, not crash."""
        plan = FaultPlan(
            specs=(FaultSpec("native.load", mode="corrupt", at=(1,)),)
        )
        with inject_faults(plan):
            kernel = _native.load_kernel()
        assert kernel is not None, _native.build_error()
        assert _native.build_error() is None

    def test_zero_size_cache_entry_treated_as_missing(self, fresh_cache):
        out = _cache_entry_path()
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(b"")
        assert _native.load_kernel() is not None, _native.build_error()
        assert out.stat().st_size > 0  # rebuilt in place

    def test_stale_garbage_on_disk_is_rebuilt(self, fresh_cache):
        out = _cache_entry_path()
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(b"\x7fELF not really a library")
        assert _native.load_kernel() is not None, _native.build_error()


class TestInjectedLoadFailure:
    @needs_toolchain
    def test_error_mode_degrades_to_unavailable_not_unhandled(
        self, fresh_cache
    ):
        """An injected load failure lands in build_error(), never raises."""
        plan = FaultPlan(specs=(FaultSpec("native.load", at=(1,)),))
        with inject_faults(plan):
            kernel = _native.load_kernel()
        assert kernel is None
        assert "injected" in (_native.build_error() or "")

    def test_engine_layer_falls_back_to_object(self, fresh_cache, monkeypatch):
        import repro.core.engine as engine_module

        monkeypatch.setattr(engine_module, "_native_fallback_warned", True)
        plan = FaultPlan(specs=(FaultSpec("native.load", at=(1,)),))
        with inject_faults(plan):
            from repro.net import open_session

            session = open_session("kary-splaynet", n=8, k=2, engine="native")
            result = session.serve(1, 5)
        assert result.routing_cost >= 0
        session.validate()
