"""Pairs of independent numpy jobs on two cores.

numpy releases the GIL inside BLAS and LAPACK calls and in ufunc loops, and
`zlib.crc32` inside its loop over a large buffer, so two such jobs that
touch disjoint memory run on two cores.  `in_parallel` starts one thread
for its call and joins it before it returns, so numcore keeps no thread
or queue between calls: concurrent callers and a job that itself calls
`in_parallel` each get a thread of their own, and a forked child has
nothing to forget.  A job given to the thread runs only such code: tape
nodes, finiteness checks and gradient accumulation stay on the calling
thread, whose `no_grad` state they must see.  BLAS keeps the one thread
the CLI sets.
"""

from __future__ import annotations

import threading


def in_parallel(here, there):
    """Run `there()` on a new thread while the calling thread runs
    `here()`; return (here(), there()).  Both have finished when this
    returns, also when one of them raised."""
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
