"""Build-and-load layer for the native kernel.

``kernel.c`` (shipped next to this module) holds the k-ary SplayNet serve
loop, the optimal-tree DP (``repro_dp_forward`` and
``repro_dp_reconstruct``, used by :mod:`repro.optimal.general`) and the
static-tree entries behind :class:`~repro.core.native.NativeTree`'s
builders, validation and batch costing.  It has no dependency on Python.h,
so it compiles with any C toolchain: this module builds it into a shared
library with ``cc -O3 -shared -fPIC``, caches the result under a
content-addressed name, and loads it through :mod:`ctypes`.  The library
is CPU-independent: on Linux x86-64 with GCC or Clang the DP's inner
min-plus loop is compiled twice (``target_clones("avx2", "default")``)
and the loader picks the clone for the running CPU, so one cached
artifact serves every x86-64 host; elsewhere the plain loop is
vectorised by ``-O3``.  The forward pass runs on an int32 table when
its values provably fit and on int64 otherwise, with identical results
(the range rule and its proof are in ``kernel.c``).  Everything is
best-effort — any failure (no compiler, read-only filesystem, a kernel
source that does not compile, ``REPRO_NATIVE=0``) leaves the process in
the *unavailable* state, recorded in :func:`build_error`: the engine
layer builds networks on the pure-Python object engine instead (see
:func:`repro.core.engine.resolve_engine`) and the DP uses its NumPy
forward pass.

Environment knobs:

``REPRO_NATIVE``
    ``0``/``off``/``false`` disables the kernel entirely (the supported
    way to exercise the no-toolchain fallback path on a machine that has
    a compiler).
``REPRO_NATIVE_CACHE``
    Directory for compiled shared objects (default
    ``~/.cache/repro/native``, falling back to the system temp dir).
``CC``
    Preferred compiler (default: first of ``cc``, ``gcc``, ``clang`` on
    ``PATH``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

from repro.errors import FaultInjected
from repro.reliability.faults import fire_fault

__all__ = [
    "available",
    "build_error",
    "kernel_source_path",
    "load_kernel",
]

#: Expected ``repro_kernel_abi()`` value; stale cached shared objects that
#: report a different version are rebuilt.  Version 2 added the
#: resident-tree handle API; version 3 removed the stateless batch entry;
#: version 4 added the optimal-tree DP forward pass ``repro_dp_forward``;
#: version 5 made ``repro_tree_serve_batch`` segmented (per-segment totals);
#: version 6 added ``repro_tree_splay_until`` and ``repro_tree_lca``;
#: version 7 added the static-tree entries ``repro_dp_reconstruct``,
#: ``repro_build_complete``, ``repro_tree_validate`` and
#: ``repro_tree_distances``.
_ABI_VERSION = 7

_COMPILERS = ("cc", "gcc", "clang")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-fvisibility=default")

_kernel: Optional[ctypes.CDLL] = None
_error: Optional[str] = None
_tried = False


def kernel_source_path() -> Path:
    """Path of the shipped C source (packaged next to this module)."""
    return Path(__file__).resolve().parent / "kernel.c"


def _disabled_by_env() -> bool:
    return os.environ.get("REPRO_NATIVE", "").strip().lower() in (
        "0",
        "off",
        "false",
        "no",
    )


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    try:
        return Path.home() / ".cache" / "repro" / "native"
    except RuntimeError:  # pragma: no cover - no resolvable home
        return Path(tempfile.gettempdir()) / "repro-native"


def _find_compiler() -> Optional[str]:
    candidates = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates.extend(_COMPILERS)
    for candidate in candidates:
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _so_path(source: bytes, compiler: str) -> Path:
    """Content-addressed cache location for the compiled kernel."""
    tag = hashlib.sha256()
    tag.update(source)
    tag.update(platform.machine().encode())
    tag.update(sys.platform.encode())
    tag.update(Path(compiler).name.encode())
    tag.update(str(_ABI_VERSION).encode())
    suffix = ".dylib" if sys.platform == "darwin" else ".so"
    return _cache_dir() / f"repro_kernel_{tag.hexdigest()[:16]}{suffix}"


def _compile(compiler: str, src: Path, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    # Compile to a private temp name, then publish atomically so
    # concurrent processes never load a half-written library.
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    cmd = [compiler, *_CFLAGS, "-o", str(tmp), str(src)]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=120, check=False
    )
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        detail = (proc.stderr or proc.stdout or "").strip()
        raise RuntimeError(
            f"{' '.join(cmd)} failed with code {proc.returncode}: {detail}"
        )
    os.replace(tmp, out)


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_kernel_abi.restype = ctypes.c_int64
    lib.repro_kernel_abi.argtypes = ()
    abi = int(lib.repro_kernel_abi())
    if abi != _ABI_VERSION:
        raise RuntimeError(
            f"kernel ABI mismatch: compiled {abi}, expected {_ABI_VERSION}"
        )
    fn = lib.repro_tree_create
    fn.restype = ctypes.c_void_p
    fn.argtypes = (ctypes.c_int64, ctypes.c_int64)  # n, k
    fn = lib.repro_tree_load
    fn.restype = None
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_int64,  # root
        ctypes.c_void_p,  # parent
        ctypes.c_void_p,  # pslot
        ctypes.c_void_p,  # children
        ctypes.c_void_p,  # routing
    )
    fn = lib.repro_tree_sync_out
    fn.restype = None
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_void_p,  # root_out
        ctypes.c_void_p,  # parent
        ctypes.c_void_p,  # pslot
        ctypes.c_void_p,  # children
        ctypes.c_void_p,  # routing
    )
    fn = lib.repro_tree_root
    fn.restype = ctypes.c_int64
    fn.argtypes = (ctypes.c_void_p,)
    fn = lib.repro_tree_serve_batch
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_void_p,  # sources
        ctypes.c_void_p,  # targets
        ctypes.c_void_p,  # ends, int64 (nseg,): cumulative segment ends
        ctypes.c_int64,  # nseg
        ctypes.c_int64,  # policy
        ctypes.c_void_p,  # routing_series (nullable)
        ctypes.c_void_p,  # rotation_series (nullable)
        ctypes.c_void_p,  # totals, int64 (nseg, 3)
    )
    fn = lib.repro_tree_serve_one
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_int64,  # u
        ctypes.c_int64,  # v
        ctypes.c_int64,  # policy
        ctypes.c_void_p,  # totals
    )
    fn = lib.repro_tree_splay_until
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_int64,  # x
        ctypes.c_int64,  # stop (0 = the root)
        ctypes.c_int64,  # max_rotations (negative = no cap)
        ctypes.c_int64,  # policy
        ctypes.c_void_p,  # out, int64 (3,): depth, rotations, links
    )
    fn = lib.repro_tree_lca
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_int64,  # u
        ctypes.c_int64,  # v
        ctypes.c_void_p,  # out, int64 (3,): lca, du, dv
    )
    fn = lib.repro_tree_destroy
    fn.restype = None
    fn.argtypes = (ctypes.c_void_p,)
    fn = lib.repro_dp_forward
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_int64,  # n
        ctypes.c_int64,  # k
        ctypes.c_void_p,  # w, int64 (n + 1, n + 1)
        ctypes.c_void_p,  # b, int64 (k + 1, n + 1, n + 2), filled
        ctypes.c_int64,  # inf sentinel
    )
    fn = lib.repro_dp_reconstruct
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # handle (n, k of the table)
        ctypes.c_void_p,  # w, int64 (n + 1, n + 1)
        ctypes.c_void_p,  # b, int64 (k + 1, n + 1, n + 2), as filled
        ctypes.c_int64,  # inf sentinel
        ctypes.c_void_p,  # info, int64 (4,): diagnostics on failure
    )
    fn = lib.repro_build_complete
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_void_p,  # info, int64 (1,): the node on failure
    )
    fn = lib.repro_tree_validate
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_int64,  # routing_based
        ctypes.c_void_p,  # info, int64 (1,): the node on failure
    )
    fn = lib.repro_tree_distances
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        ctypes.c_void_p,  # handle
        ctypes.c_void_p,  # sources
        ctypes.c_void_p,  # targets
        ctypes.c_int64,  # m
        ctypes.c_void_p,  # series, int64 (m,) (nullable)
        ctypes.c_void_p,  # total, int64 (1,)
    )
    return lib


def _load() -> ctypes.CDLL:
    if _disabled_by_env():
        raise RuntimeError("disabled by REPRO_NATIVE=0")
    src = kernel_source_path()
    if not src.is_file():
        raise RuntimeError(f"kernel source missing: {src}")
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError(
            "no C compiler found (tried $CC, cc, gcc, clang)"
        )
    source = src.read_bytes()
    out = _so_path(source, compiler)
    # A zero-size cache entry (e.g. disk-full or a crash between create
    # and publish on a filesystem without atomic replace) is not a
    # library: treat it as absent rather than letting CDLL choke on it.
    if not out.is_file() or out.stat().st_size == 0:
        _compile(compiler, src, out)
    fault = fire_fault("native.load", context=str(out))
    if fault is not None:
        if fault.mode == "corrupt":
            # Smash the cached artifact so the load below exercises the
            # rebuild-from-scratch recovery path.
            out.write_bytes(b"\x7fNOT-AN-ELF" + os.urandom(32))
        else:
            raise FaultInjected(
                f"injected kernel load failure: {fault.detail or fault.point}"
            )
    try:
        return _configure(ctypes.CDLL(str(out)))
    except Exception:
        # A stale or corrupt cache entry: rebuild once from scratch.
        out.unlink(missing_ok=True)
        _compile(compiler, src, out)
        return _configure(ctypes.CDLL(str(out)))


def load_kernel() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, or ``None`` when unavailable.

    The first call does the work (compile if needed, load, ABI check);
    the outcome — library or failure reason — is cached for the process.
    """
    global _kernel, _error, _tried
    if not _tried:
        _tried = True
        try:
            _kernel = _load()
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            _kernel = None
            _error = f"{type(exc).__name__}: {exc}"
    return _kernel


def available() -> bool:
    """Whether the compiled kernel can be used in this process."""
    return load_kernel() is not None


def build_error() -> Optional[str]:
    """Why the kernel is unavailable (``None`` when it loaded fine)."""
    load_kernel()
    return _error


def _reset_for_tests() -> None:
    """Forget the cached load outcome (so tests can flip REPRO_NATIVE)."""
    global _kernel, _error, _tried
    _kernel = None
    _error = None
    _tried = False
