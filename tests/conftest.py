import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402
import ray  # noqa: E402


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per repo policy)."""
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


def _cpus_free(wait_s: float) -> bool:
    import time

    deadline = time.time() + wait_s
    while True:
        total = ray.cluster_resources().get("CPU", 0)
        if ray.available_resources().get("CPU", 0) >= total:
            return True
        if time.time() > deadline:
            return False
        time.sleep(0.1)


def _our_pool_workers() -> list[int]:
    """Pids of Ray Data actor-pool workers (``ray::MapWorker``) that
    descend from this process, i.e. belong to this session's raylet."""
    import os

    me, pids = os.getpid(), []
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                if not f.read().startswith(b"ray::MapWorker"):
                    continue
            pid = int(name)
            while pid > 1 and pid != me:
                with open(f"/proc/{pid}/stat") as f:
                    pid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError):
            continue
        if pid == me:
            pids.append(int(name))
    return pids


@pytest.fixture(autouse=True)
def no_leaked_pool_actor():
    """Between tests no dataset runs, so every CPU of the shared session
    must be free again.  The flagship extraction runs as tasks and holds no
    pool; this guards the actor-pool stages (``stages/protocol.py``'s
    callable-class stages and the library ops built on them).  Ray can
    leak an actor-pool worker: a pool actor still starting when its
    dataset finishes goes out of scope, the kill reaches its worker before
    the actor id does and is ignored, and the worker keeps its CPU lease,
    so the next test's pipelines run short of that CPU, and a pool sized
    to the free CPUs never starts.  Once garbage collection has released
    any pool still referenced, such a worker is killed here (its lease
    returns at once) and reported as a warning."""
    yield
    if not ray.is_initialized() or _cpus_free(1.0):
        return
    import gc

    gc.collect()  # a dataset left in a reference cycle still holds its pool
    if _cpus_free(5.0):
        return
    import os
    import signal
    import warnings

    leaked = _our_pool_workers()
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    freed = _cpus_free(5.0)
    warnings.warn(
        f"killed {len(leaked)} leaked Ray actor-pool worker(s) holding CPUs"
        + ("" if freed else "; CPUs are still held")
    )


class SimulatedCrash(Exception):
    """Raised by ``crash_after`` where a killed run would have died."""


@pytest.fixture
def crash_after(monkeypatch):
    """``with crash_after("bucket-", 3): run(...)`` — the run dies in the
    publish of its 4th unit named ``bucket-*``: after the unit dir is
    renamed into place, before its manifest commits (a kill between the
    two).  The context asserts that the run died there."""
    import contextlib

    from action_pdf_accessibility_paddle_docker_ray.state.checkpoint import Checkpoint

    real = Checkpoint._commit

    @contextlib.contextmanager
    def crash(prefix: str, n_units: int):
        committed = []

        def commit(self, unit, record):
            if unit.startswith(prefix):
                if len(committed) == n_units:
                    raise SimulatedCrash(unit)
                committed.append(unit)
            real(self, unit, record)

        with monkeypatch.context() as m:
            m.setattr(Checkpoint, "_commit", commit)
            with pytest.raises(SimulatedCrash):
                yield

    return crash


@pytest.fixture
def unit_mtimes():
    """``unit_mtimes(out)``: committed unit → its manifest's mtime (the
    run record left out), to show a resume rewrote no committed unit."""
    import os

    from action_pdf_accessibility_paddle_docker_ray.state.checkpoint import (
        RUN,
        load_manifest,
    )

    return lambda out: {
        u: os.path.getmtime(os.path.join(out, "_manifest", f"{u}.json"))
        for u in load_manifest(out) if u != RUN
    }
