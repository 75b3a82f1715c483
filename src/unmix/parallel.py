"""How jobs of numpy work are spread over the CPUs: `ordered`, and the CPU
count and the OpenBLAS thread pin it runs them under."""

import ctypes
import functools
import os
import queue
import threading
from collections import deque
from concurrent.futures import Future
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
    are yielded. Jobs run on one helper thread per further CPU and on the
    calling thread, with OpenBLAS held to one thread (one_blas_thread);
    while the oldest job is unfinished, the calling thread runs the first
    one no thread has started. With helpers, `ahead` is by default one more
    than the threads that run jobs, so a job is queued for the first thread
    to finish while the calling thread runs one or takes the next. Where no
    OpenBLAS thread setting is found, or only one CPU, every job runs on the
    calling thread and `ahead` is by default 1.

    An error in a job is raised when its result is due, in job order. No job
    is kept once it has run, so what only it holds is freed before its
    result is yielded. Closing the generator drops the jobs not yet started
    and waits for the helpers to stop.
    """
    jobs = iter(jobs)
    unstarted = queue.SimpleQueue()  # (job, future) pairs no thread has begun
    pending = deque()  # the futures of the jobs taken and not yet yielded, oldest first
    helpers = []

    def serve():
        while _run_next(unstarted, block=True):
            pass

    with one_blas_thread():
        spare = job_threads() - 1
        ahead = ahead or (spare + 2 if spare else 1)
        try:
            _take(jobs, ahead, pending, unstarted)
            for _ in range(min(spare, len(pending))):
                helper = threading.Thread(target=serve, name="unmix-worker")
                helper.start()
                helpers.append(helper)
            while pending:
                while not pending[0].done() and _run_next(unstarted, block=False):
                    pass
                result = pending.popleft().result()
                _take(jobs, ahead - len(pending), pending, unstarted)
                yield result
        finally:
            try:  # drop the jobs not yet started
                while True:
                    unstarted.get_nowait()
            except queue.Empty:
                pass
            for _ in helpers:
                unstarted.put((None, None))
            for helper in helpers:
                helper.join()


def _take(jobs, n, pending, unstarted):
    """Take up to n more jobs, each with the future of its result. A function
    of its own, so that no local of ordered keeps the last job taken."""
    for job in islice(jobs, n):
        pending.append(Future())
        unstarted.put((job, pending[-1]))


def _run_next(unstarted, block):
    """Run the first job no thread has begun and settle its future; False
    if there is none, or if a helper is told to stop."""
    try:
        job, future = unstarted.get(block)
    except queue.Empty:
        return False
    if job is None:
        return False
    try:
        result = job()
    except Exception as exc:  # raised from the future when its result is due
        future.set_exception(exc)
    else:
        del job  # so what only the job holds is freed before its result is yielded
        future.set_result(result)
    return True
