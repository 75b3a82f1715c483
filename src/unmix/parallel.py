"""How jobs of numpy work are spread over the CPUs: `ordered`, and the CPU
count and the OpenBLAS thread pin it runs them under."""

import ctypes
import functools
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from itertools import islice


@functools.cache
def blas_thread_calls():
    """(get, set) of the loaded OpenBLAS's thread count, or None if the
    library exports neither naming of them."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:  # numpy's OpenBLAS is a dependency of this extension: its handle finds the symbols
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for get, set_ in (
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
        ("openblas_get_num_threads", "openblas_set_num_threads"),
    ):
        if hasattr(library, get) and hasattr(library, set_):
            get, set_ = getattr(library, get), getattr(library, set_)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# The thread count is one setting of the process, so the pins of every thread
# share one count of holders; the first saves the setting, the last restores it.
_pin_lock = threading.Lock()
_pin = {"holders": 0, "saved": None}


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS to one thread, where it has a thread setting, then
    restore its count. Pins may overlap, on one thread or several: the
    count is restored when the last of them ends."""
    calls = blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _pin_lock:
        if _pin["holders"] == 0:
            _pin["saved"] = get()
            set_(1)
        _pin["holders"] += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin["holders"] -= 1
            if _pin["holders"] == 0:
                set_(_pin["saved"])


def worker_count():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def job_threads():
    """The threads `ordered` runs jobs on: one per CPU where OpenBLAS can be
    held to one thread, else the calling thread alone."""
    return worker_count() if blas_thread_calls() is not None else 1


def ordered(jobs, ahead=None):
    """Yield the results of the zero-argument callables `jobs`, in order.

    The calling thread takes job n once the results before job n - `ahead`
    are yielded. Jobs run on a standard-library pool (ThreadPoolExecutor) of
    one thread per further CPU and on the calling thread, with OpenBLAS held
    to one thread (one_blas_thread); while the oldest job is unfinished, the
    calling thread runs the first one no pool thread has started. With a
    pool, `ahead` is by default one more than the threads that run jobs, so
    a job is queued for the first thread to finish while the calling thread
    runs one or takes the next. Where no OpenBLAS thread setting is found,
    or only one CPU, every job runs on the calling thread and `ahead` is by
    default 1.

    An error in a job is raised when its result is due, in job order. No job
    is kept once it has run, so what only it holds is freed before its
    result is yielded. Closing the generator drops the jobs not yet started
    and waits for the pool's threads to stop.
    """
    jobs = iter(jobs)
    pending = deque()  # (future, [job]) of the jobs taken and not yet yielded, oldest first
    with one_blas_thread():
        spare = job_threads() - 1
        ahead = ahead or (spare + 2 if spare else 1)
        pool = ThreadPoolExecutor(spare, "unmix-worker") if spare else None
        try:
            _take(jobs, ahead, pending, pool)
            while pending:
                while not pending[0][0].done() and _take_back(pending):
                    pass
                result = pending.popleft()[0].result()
                _take(jobs, ahead - len(pending), pending, pool)
                yield result
        finally:
            if pool:
                pool.shutdown(cancel_futures=True)


def _take(jobs, n, pending, pool):
    """Take up to n more jobs, each with the future of its result: run on
    the pool, or, without one, left for the calling thread. A function of
    its own, so that no local of ordered keeps the last job taken."""
    for job in islice(jobs, n):
        box = [job]
        pending.append((pool.submit(_run, box) if pool else Future(), box))


def _take_back(pending):
    """Run the first job taken that no pool thread has started, on this
    thread, and settle a future of its own; False if there is none."""
    for i, (future, box) in enumerate(pending):
        if future.cancel():  # succeeds only on a job not yet started
            pending[i] = (future := Future(), box)
            try:
                future.set_result(_run(box))
            except Exception as exc:  # raised from the future when its result is due
                future.set_exception(exc)
            return True
    return False


def _run(box):
    """Run the one job in `box`, taken out first so that what only it holds
    is freed before its result is yielded."""
    return box.pop()()
