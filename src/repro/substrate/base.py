"""Pluggable execution substrates: where a block's transactions *actually* run.

Every executor talks to its workers through a seam — DMVCC through access
sequences and the lock table, OCC through versioned rounds, DAG through the
conflict graph.  A :class:`Substrate` decides what sits behind that seam:

* ``sim``        — the discrete-event simulator (`repro.sim`): parallelism
  in *gas time*, byte-identical to every release since the seed.  Default.
* ``threads``    — real ``threading`` workers: true concurrency, GIL-bound
  throughput.  The honest baseline real parallelism must beat.
* ``processes``  — a ``multiprocessing`` worker pool: real parallel EVM
  execution on real cores, coordinated through the same protocol machinery.

Executors call :meth:`Substrate.acquire` with the requested parallelism;
``sim`` returns ``None`` (run the simulator path), the real substrates
return a cached :class:`~repro.substrate.pools.WorkerPool`.  Pools persist
across blocks — spawning processes per block would drown the win — and are
closed by :meth:`close` (or atexit for the environment-selected default).

``REPRO_SUBSTRATE`` / ``REPRO_SUBSTRATE_WORKERS`` select a process-wide
default substrate without touching call sites: every executor constructed
without an explicit ``substrate=`` picks it up, which is how CI runs the
ordinary differential-fuzz suites on the processes backend.
"""

from __future__ import annotations

import atexit
import os
from typing import Dict, Optional

from .pools import WorkerPool, make_pool

SUBSTRATE_KINDS = ("sim", "threads", "processes")

ENV_SUBSTRATE = "REPRO_SUBSTRATE"
ENV_WORKERS = "REPRO_SUBSTRATE_WORKERS"


class Substrate:
    """One execution backend; owns its worker pools.

    ``workers`` pins the worker count regardless of the ``threads``
    argument executors receive (CI uses this to smoke-test with 2 process
    workers while the suites keep asking for their usual thread counts);
    ``None`` sizes pools to the requested parallelism.
    """

    kind = "sim"

    def __init__(self, workers: Optional[int] = None, seed: int = 0,
                 worker_delay: float = 0.0,
                 task_timeout: Optional[float] = None) -> None:
        self.workers = workers
        self.seed = seed
        self.worker_delay = worker_delay
        self.task_timeout = task_timeout
        self._pools: Dict[int, WorkerPool] = {}

    def acquire(self, threads: int) -> Optional[WorkerPool]:
        """The pool to run on, or ``None`` for the simulator path."""
        if self.kind == "sim":
            return None
        size = self.workers if self.workers else max(int(threads), 1)
        pool = self._pools.get(size)
        if pool is None:
            pool = make_pool(self.kind, size, seed=self.seed,
                             worker_delay=self.worker_delay,
                             task_timeout=self.task_timeout)
            self._pools[size] = pool
        return pool

    def close(self) -> None:
        pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.close()

    def __enter__(self) -> "Substrate":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Substrate {self.kind} workers={self.workers}>"


class SimSubstrate(Substrate):
    kind = "sim"


class ThreadsSubstrate(Substrate):
    kind = "threads"


class ProcessesSubstrate(Substrate):
    kind = "processes"


_REGISTRY = {
    "sim": SimSubstrate,
    "threads": ThreadsSubstrate,
    "processes": ProcessesSubstrate,
}


def get_substrate(name: str, workers: Optional[int] = None,
                  **options) -> Substrate:
    """Construct a substrate by name (``sim`` / ``threads`` / ``processes``)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown substrate {name!r}; expected one of {SUBSTRATE_KINDS}"
        ) from None
    return cls(workers=workers, **options)


_default: Optional[Substrate] = None
_default_key: Optional[str] = None


def default_substrate() -> Optional[Substrate]:
    """The environment-selected substrate, or ``None`` (≡ sim).

    The instance is cached process-wide so every executor shares one set of
    worker pools; it is torn down atexit.
    """
    global _default, _default_key
    name = os.environ.get(ENV_SUBSTRATE, "").strip().lower()
    if not name or name == "sim":
        return None
    workers_env = os.environ.get(ENV_WORKERS, "").strip()
    workers = int(workers_env) if workers_env else None
    key = f"{name}:{workers}"
    if _default is None or _default_key != key:
        if _default is not None:
            _default.close()
        _default = get_substrate(name, workers=workers)
        _default_key = key
        atexit.register(_default.close)
    return _default
