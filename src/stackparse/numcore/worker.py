"""One persistent worker thread for pairs of independent numpy jobs.

numpy releases the GIL inside BLAS calls and inside ufunc loops, and
`zlib.crc32` inside its loop over a large buffer, so two such jobs that
touch disjoint memory run on two cores.  A job given to the worker runs
only such code: tape nodes, finiteness checks and gradient
accumulation stay on the calling thread, whose `no_grad` state they must
see.  The thread is a daemon started on first use; BLAS thread settings
are left as they are.
"""

from __future__ import annotations

import os
import threading

_ready = threading.Condition()
_jobs: list | None = None  # (job, outcome, done) triples for the worker; None until it runs


def _serve(jobs: list, ready: threading.Condition) -> None:
    while True:
        with ready:
            while not jobs:
                ready.wait()
            fn, outcome, done = jobs.pop(0)
        try:
            outcome["result"] = fn()
        except BaseException as exc:  # re-raised by the waiting caller
            outcome["error"] = exc
        done.set()
        del fn, outcome, done  # hold nothing while idle


def _forget_worker() -> None:
    global _jobs, _ready
    _jobs, _ready = None, threading.Condition()


# A forked child has no worker thread, only the list it used to read.
os.register_at_fork(after_in_child=_forget_worker)


def in_parallel(here, there):
    """Run `there()` on the worker while the calling thread runs `here()`;
    return (here(), there()).  Both have finished when this returns, also
    when one of them raised."""
    global _jobs
    outcome, done = {}, threading.Event()
    with _ready:
        if _jobs is None:
            _jobs = []
            threading.Thread(target=_serve, args=(_jobs, _ready), name="numcore-worker",
                             daemon=True).start()
        _jobs.append((there, outcome, done))
        _ready.notify()
    try:
        mine = here()
    finally:
        done.wait()
    if "error" in outcome:
        raise outcome["error"]
    return mine, outcome["result"]
