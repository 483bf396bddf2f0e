"""Independent numpy jobs on every core: a pair on two threads, or a
list in forked processes.

numpy releases the GIL inside BLAS and LAPACK calls and in ufunc loops, and
`zlib.crc32` inside its loop over a large buffer, so two such jobs that
touch disjoint memory run on two cores.  `in_parallel` starts one thread
for its call and joins it before it returns, so numcore keeps no thread
or queue between calls: concurrent callers and a job that itself calls
`in_parallel` each get a thread of their own.  A job given to the thread
runs only such code: tape nodes, finiteness checks and gradient
accumulation stay on the calling thread, whose `no_grad` state they must
see.  BLAS keeps the one thread the CLI sets.

Between the numpy calls, two threads take turns holding the GIL, so jobs
with many small calls (a recurrence over a batch) lose most of the second
core to the handoffs.  `in_processes` runs each job but the first in a
forked child, which shares the parent's pages (a mapped model archive
included) copy-on-write and sends its pickled result, or its exception,
back through a pipe.  While it runs, `in_parallel` runs both of its jobs
on the calling thread, so each process keeps to one core.  `cores` says
how many processes may run: fork only where no other thread is running,
since a forked child keeps only the thread that forked.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

# True while `in_processes` runs its jobs, in the parent and in every child.
# A process-wide flag and not a thread's: `cores` lets the parent fork only
# while no other thread runs, and `in_parallel` then starts none.
_splitting = False


def in_parallel(here, there):
    """Run `there()` on a new thread while the calling thread runs
    `here()`; return (here(), there()).  Both have finished when this
    returns, also when one of them raised.  Inside `in_processes` both
    run on the calling thread, `here()` first."""
    if _splitting:
        return here(), there()
    outcome = {}

    def run():
        try:
            outcome["result"] = there()
        except BaseException as exc:  # re-raised by the caller
            outcome["error"] = exc

    helper = threading.Thread(target=run, name="numcore-worker")
    helper.start()
    try:
        mine = here()
    finally:
        helper.join()
    if "error" in outcome:
        raise outcome["error"]
    return mine, outcome["result"]


def cores() -> int:
    """How many jobs `in_processes` may run at once: the cores this process
    may use, or 1 where it cannot fork safely (no `os.fork` or
    `os.sched_getaffinity`, another thread running, or a split already
    running)."""
    if (_splitting or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def in_processes(jobs: list) -> list:
    """Each job's result, in order: the first job runs here, each other one
    in a forked child at the same time.  A job's exception is raised here
    with its type and message; when several raise, the first job's (this
    process's) wins, else the earliest child's.  No child outlives the
    call.  Callers check `cores()` first."""
    global _splitting
    if len(jobs) < 2:
        return [job() for job in jobs]
    children = []  # (pid, read end of its pipe), until reaped
    _splitting = True
    try:
        for job in jobs[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(job, write)  # never returns
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        results = [jobs[0]()]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            results.append(_received(pid, status, payload))
        return results
    finally:
        _splitting = False
        for pid, pipe in children:  # after an error: stop and reap the rest
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # an exited, unreaped child takes it too
            os.waitpid(pid, 0)


def _child(job, write: int) -> None:
    """Run `job` in a forked child, send ("result", value) or ("error",
    exception) pickled to `write`, and exit without returning to the
    caller's code, running no cleanup of the parent's."""
    status = 1
    try:
        try:
            payload = pickle.dumps(("result", job()), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            payload = _error_payload(exc)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _error_payload(exc: BaseException) -> bytes:
    """`exc` pickled so that the parent unpickles its type, args and
    attributes.  Pickle rebuilds an exception by calling its class with its
    args, which fails for a class whose `__init__` takes other arguments;
    such an exception is rebuilt without calling `__init__`."""
    payload = pickle.dumps(("error", exc), pickle.HIGHEST_PROTOCOL)
    try:
        if type(pickle.loads(payload)[1]) is type(exc):
            return payload
    except Exception:  # the class's __init__ rejects its own args
        pass
    return pickle.dumps(("rebuild", (type(exc), exc.args, vars(exc))),
                        pickle.HIGHEST_PROTOCOL)


def _received(pid: int, status: int, payload: bytes):
    """The result that child `pid` sent, given its wait status; raises the
    child's exception, or ChildProcessError when it died without sending
    one."""
    if status != 0 or not payload:
        if os.WIFSIGNALED(status):
            how = f"was killed by signal {os.WTERMSIG(status)}"
        else:
            how = f"exited with status {os.WEXITSTATUS(status)}"
        raise ChildProcessError(f"worker process {pid} {how} before sending its result")
    kind, value = pickle.loads(payload)
    if kind == "result":
        return value
    if kind == "rebuild":
        cls, args, state = value
        value = cls.__new__(cls, *args)
        value.args = args
        value.__dict__.update(state)
    raise value
