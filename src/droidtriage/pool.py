"""One worker pool for every fan-out, `compare`'s folds and `train_forest`'s
batches of trees: results come in item order, the same for any worker count."""

import signal
import sys
import threading

_JOB = None  # a worker process's job, set once by `_start`; the parent never sets it


def _start(job) -> None:
    global _JOB
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    _JOB = job


def _call(item):
    return _JOB(item)


def run(job, items: list, workers: int) -> list:
    """``job(item)`` for each of `items`, in order, on a pool of at most
    `workers` forked processes made for the call, which inherit `job`, so
    only items and results are pickled; or in this process for one worker or
    item, off Linux, or while another Python thread runs: a fork is not safe then."""
    workers = min(workers, len(items))
    if workers <= 1 or sys.platform != "linux" or threading.active_count() > 1:
        return list(map(job, items))
    import multiprocessing  # here: it and the pool take about 18 ms and 1 MiB to import
    from concurrent.futures import ProcessPoolExecutor

    executor = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), initializer=_start, initargs=(job,))
    try:
        return list(executor.map(_call, items))
    finally:
        executor.shutdown(cancel_futures=True)
