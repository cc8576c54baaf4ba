"""Shared plumbing for the benchmark harnesses and the chaos soak.

Every ``repro bench-*`` command (and ``repro chaos``) produces one JSON
record; this module is what they have in common:

* :func:`provenance` — where and when a record was measured (git sha
  and whether the checkout was dirty, UTC date, interpreter, machine,
  CPU count), stamped as one ``provenance`` block on every record
  :func:`write_record` writes or the CLI prints;
* :func:`keyed_stream` — the deterministic keyed traffic the serving
  benchmarks drive (Zipf requests, keys round-robin), and
  :func:`clean_totals`, its single-process oracle, in the
  :func:`batch_totals` shape;
* :func:`best_of_interleaved` — the house timing loop: subjects are
  interleaved across repeats (A, B, C, then A, B, C again) so slow
  load drift hits every subject equally, and the best wall-clock and
  best CPU time are kept per subject.  Setup (network construction) runs
  outside the timed region;
* :func:`require_engines` — the "native requested but the kernel is
  unavailable" refusal, so no harness records the silent object fallback
  under the native label;
* :func:`all_equal` — the exact cross-check behind every ``*_match``
  field.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence

from repro.core.engine import check_engine_name, native_available
from repro.errors import ExperimentError

__all__ = [
    "Best",
    "all_equal",
    "batch_totals",
    "best_of_interleaved",
    "clean_totals",
    "keyed_stream",
    "provenance",
    "record_json",
    "require_engines",
    "write_record",
]


#: Where ``git`` runs to find the checkout this package runs from.
_PACKAGE_DIR = Path(__file__).resolve().parent


def _git(*args: str) -> Optional[str]:
    """Stdout of ``git args`` in the package's checkout (None outside one)."""
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=_PACKAGE_DIR,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def provenance() -> dict[str, Any]:
    """Where and when a record was measured.

    ``git_sha`` is the checkout's HEAD and ``dirty`` says whether tracked
    files differ from it, so a record measured on uncommitted code does
    not pass for its parent's; both are ``None`` outside a checkout.
    """
    sha = (_git("rev-parse", "HEAD") or "").strip() or None
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "dirty": None if sha is None or status is None else bool(status.strip()),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def record_json(record: dict) -> str:
    """The canonical JSON text of a record (sorted keys, indented)."""
    return json.dumps(record, indent=2, sort_keys=True)


def write_record(record: dict, path: "str | Path") -> Path:
    """Stamp ``record`` with a provenance block (unless it carries one)
    and persist it as sorted, pretty-printed JSON."""
    record.setdefault("provenance", provenance())
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(record_json(record) + "\n")
    return out


def keyed_stream(trace, keys: int) -> list[tuple[str, int, int]]:
    """Deterministic keyed traffic: the trace's requests, keys round-robin."""
    sources = trace.sources.tolist()
    targets = trace.targets.tolist()
    return [
        (f"key-{i % keys}", sources[i], targets[i])
        for i in range(len(sources))
    ]


def clean_totals(
    stream: Iterable[tuple[Any, int, int]],
    algorithm: str,
    n: int,
    k: int,
    engine: Optional[str] = None,
) -> list[int]:
    """Oracle ``[m, routing, rotations, links]`` of a keyed stream.

    One fresh in-process session per key serves that key's requests in
    order — what any serving path (farm, socket, chaos-stormed server)
    must reproduce exactly, since sessions are independent per key.
    """
    from repro.net.session import open_session

    per_key: dict[Any, tuple[list[int], list[int]]] = {}
    for key, u, v in stream:
        sources, targets = per_key.setdefault(key, ([], []))
        sources.append(u)
        targets.append(v)
    totals = [0, 0, 0, 0]
    for sources, targets in per_key.values():
        session = open_session(algorithm, n=n, k=k, engine=engine)
        batch = batch_totals(session.serve_stream(sources, targets))
        totals = [a + b for a, b in zip(totals, batch)]
    return totals


def batch_totals(batch) -> list[int]:
    """``[m, routing, rotations, links]`` of one served batch."""
    return [
        batch.m,
        batch.total_routing,
        batch.total_rotations,
        batch.total_links_changed,
    ]


@dataclass(frozen=True)
class Best:
    """Best-of timings of one subject, plus its last run's result."""

    wall: float
    cpu: float
    result: Any


def best_of_interleaved(
    subjects: Sequence[Hashable],
    repeats: int,
    prepare: Callable[[Any], Callable[[], Any]],
) -> dict[Any, Best]:
    """Time every subject ``repeats`` times, interleaved; keep the best.

    ``prepare(subject)`` does the untimed setup (e.g. builds a fresh
    network, since self-adjustment carries state over) and returns the
    zero-argument callable that is timed.  Wall clock and CPU time
    (``time.process_time``) are minimised independently; ``result`` is
    the last run's return value.
    """
    if repeats < 1:
        raise ExperimentError(f"repeats must be >= 1, got {repeats}")
    best: dict[Any, Best] = {}
    for _ in range(repeats):
        for subject in subjects:
            run = prepare(subject)
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            result = run()
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
            previous = best.get(subject)
            if previous is not None:
                wall = min(wall, previous.wall)
                cpu = min(cpu, previous.cpu)
            best[subject] = Best(wall=wall, cpu=cpu, result=result)
    return best


def require_engines(engines: Iterable[str], remedy: str) -> None:
    """Reject unknown engine names, and ``native`` without the kernel.

    Measuring the object fallback under the ``native`` label would record
    a lie, so the request fails with ``remedy`` appended.
    """
    engines = tuple(engines)
    for engine in engines:
        check_engine_name(engine, ExperimentError)
    if "native" in engines and not native_available():
        from repro.core import _native

        raise ExperimentError(
            "engine 'native' requested but the compiled kernel is"
            f" unavailable ({_native.build_error()}); {remedy}"
        )


def all_equal(values: Iterable[Any]) -> Optional[bool]:
    """Whether every value is equal; ``None`` with fewer than two."""
    values = list(values)
    if len(values) < 2:
        return None
    return all(value == values[0] for value in values)
