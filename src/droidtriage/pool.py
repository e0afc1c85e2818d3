"""One worker pool, and one rule for its size, for every fan-out: the items
of the training plan `algo.train_models`, batches of trees and single fits,
for `train`, `compare` and `crossval`. Results come in item order."""

import os
import signal
import sys
import threading

_JOB = None  # a worker process's job, set once by `_start`; the parent never sets it


class BrokenPool(RuntimeError):
    """A worker process died, killed or out of memory, before its job ended."""


def _start(job) -> None:
    global _JOB
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    _JOB = job


def _call(item):
    return _JOB(item)


def workers() -> int:
    """How many processes a fan-out uses: the CPUs this process may run on
    (so `taskset` bounds it); one off Linux, while another Python thread runs
    (a fork is not safe then), and inside a worker, so that a fan-out in a
    job stays in that job's process."""
    if sys.platform != "linux" or threading.active_count() > 1 or _JOB is not None:
        return 1
    return len(os.sched_getaffinity(0))


def run(job, items: list) -> list:
    """``job(item)`` for each of `items`, in order, on a pool of at most
    `workers()` forked processes made for the call, which inherit `job`, so
    only items and results are pickled; or in this process for one worker or
    item. A worker that dies raises `BrokenPool`."""
    n = min(workers(), len(items))
    if n <= 1:
        return list(map(job, items))
    import multiprocessing  # here: it and the pool take about 18 ms and 1 MiB to import
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    executor = ProcessPoolExecutor(n, multiprocessing.get_context("fork"), initializer=_start, initargs=(job,))
    try:
        return list(executor.map(_call, items))
    except BrokenExecutor as exc:
        raise BrokenPool(str(exc)) from exc
    finally:
        executor.shutdown(cancel_futures=True)
