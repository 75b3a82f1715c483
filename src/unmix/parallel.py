"""What helper threads of numpy work share: the CPU count that sizes them and
the OpenBLAS thread pin they run under."""

import ctypes
import functools
import os
import threading
from contextlib import contextmanager


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
    """Hold OpenBLAS to one thread, then restore its count; yields whether
    it could. Pins may overlap, on one thread or several: the count is
    restored when the last of them ends."""
    calls = blas_thread_calls()
    if calls is None:
        yield False
        return
    get, set_ = calls
    with _pin_lock:
        if _pin["holders"] == 0:
            _pin["saved"] = get()
            set_(1)
        _pin["holders"] += 1
    try:
        yield True
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

