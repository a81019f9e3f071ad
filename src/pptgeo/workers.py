"""Helper processes that run batches of work beside the calling process.

`pool_map` forks its helpers the first time a call needs them and keeps
them for every later call in the process, so they run the code as it was
loaded when they were forked.  Each batch goes to a helper as a pickle
behind its 8-byte length over a pipe, and its results or its exception
come back the same way.  Dropping this module, or leaving the interpreter,
closes the pipes and reaps the helpers.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Callable


def _frame(obj) -> bytes:
    """obj pickled, behind its length as 8 little-endian bytes."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return len(data).to_bytes(8, "little") + data


def _send(pipe, frame: bytes) -> None:
    view = memoryview(frame)
    while view:  # a signal can cut a pipe write short
        view = view[pipe.write(view):]


def _receive(pipe):
    """The next object framed on `pipe`; None once its writer is gone."""
    size = int.from_bytes(pipe.read(8), "little")
    data = pipe.read(size)
    return pickle.loads(data) if size and len(data) == size else None


def _serve(jobs_in, results_out) -> None:
    """Helper loop: run each (fn, jobs) batch until the caller closes its
    end.  An exception that does not survive a pickle round trip goes back
    as a ChildProcessError naming its type and message."""
    while (batch := _receive(jobs_in)) is not None:
        try:
            frame = _frame((True, [batch[0](*job) for job in batch[1]]))
        except Exception as exc:
            try:
                frame = _frame((False, exc))
                pickle.loads(frame[8:])
            except Exception:
                frame = _frame((False, ChildProcessError(f"{type(exc).__name__}: {exc}")))
        _send(results_out, frame)


class _Pool:
    """Helper processes forked once per process (see pool_map); dropping the
    pool closes it."""

    def __init__(self):
        self.pid, self.lock, self.helpers = os.getpid(), threading.Lock(), []

    def spawn(self, count: int) -> bool:
        """Fork helpers until there are `count`; False if this process may not
        fork now (no fork, other threads running, fork or pipe failed)."""
        while len(self.helpers) < count:
            if not hasattr(os, "fork") or threading.active_count() != 1:
                return False
            fds = []
            try:
                fds += os.pipe() + os.pipe()
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                return False
            jobs_in, jobs_out, results_in, results_out = fds
            if pid == 0:
                # Leave by os._exit alone: never return into the caller's
                # stack or run its exit handlers.
                try:
                    os.close(jobs_out)
                    os.close(results_in)
                    with os.fdopen(jobs_in, "rb") as jobs, \
                            os.fdopen(results_out, "wb", buffering=0) as results:
                        _serve(jobs, results)
                finally:
                    os._exit(0)
            os.close(jobs_in)
            os.close(results_out)
            ends = (os.fdopen(jobs_out, "wb", buffering=0), os.fdopen(results_in, "rb"))
            for end in ends:
                # A forked process closes its copies, so a helper sees EOF once
                # this one closes.  Builtin bound methods keep no module alive.
                os.register_at_fork(after_in_child=end.close)
            self.helpers.append((pid, *ends))
        return True

    def run(self, fn: Callable, own: list[tuple], frames: list[bytes]) -> list[list]:
        """Send frames[j] to helper j, run `own` here, then gather the results
        in order.  Any exception closes the pool, since a reply may be left
        in a pipe."""
        helpers = self.helpers[:len(frames)]
        try:
            for (_, jobs_out, _), frame in zip(helpers, frames):
                try:
                    _send(jobs_out, frame)
                except BrokenPipeError:
                    pass  # the helper is gone; reading its reply says so
            results = [[fn(*job) for job in own]]
            for pid, _, results_in in helpers:
                reply = _receive(results_in)
                if reply is None:
                    raise ChildProcessError(f"helper process {pid} ended without a result")
                if not reply[0]:
                    raise reply[1]
                results.append(reply[1])
            return results
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close the pipes, so the helpers exit, and reap those this process forked."""
        helpers, self.helpers = self.helpers, []
        for _, jobs_out, results_in in helpers:
            jobs_out.close()
            results_in.close()
        for pid, _, _ in helpers if self.pid == os.getpid() else ():
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass

    __del__ = close


_POOL = _Pool()


def pool_map(fn: Callable, batches: list[list[tuple]]) -> list[list]:
    """[[fn(*job) for job in batch] for batch in batches]: this process runs
    batches[0] while helper j runs batches[j], pickled over a pipe.

    Helpers are forked on first use while no other thread runs (a fork
    copies only the calling thread) and serve later calls with the code as
    loaded then.  A helper's exception is raised here, a dead helper's as
    ChildProcessError, and any exception closes the pool, so no reply is
    left for the next call.  Without fork, when a batch does not pickle, in
    a process forked from the pool's owner, or while another thread uses
    the pool, every batch runs here.
    """
    global _POOL
    if _POOL.pid != os.getpid():
        _POOL = _Pool()
    pool = _POOL
    try:
        frames = [_frame((fn, batch)) for batch in batches[1:]]
    except (pickle.PicklingError, AttributeError, TypeError):
        frames = []
    if frames and pool.lock.acquire(blocking=False):
        try:
            if pool.spawn(len(frames)):
                return pool.run(fn, batches[0], frames)
        finally:
            pool.lock.release()
    return [[fn(*job) for job in batch] for batch in batches]
