import functools
import sys
import threading
import time
import weakref
from itertools import islice

import numpy as np
import pytest

import unmix.parallel
from unmix.parallel import one_blas_thread, ordered


class FakeBlas:
    """A stand-in for OpenBLAS's thread setting, so that ordered runs helpers
    whether or not numpy's BLAS exports one."""

    def __init__(self):
        self.threads = 8

    def calls(self):
        return self.get, self.set

    def get(self):
        return self.threads

    def set(self, n):
        self.threads = n


@pytest.fixture
def blas(monkeypatch):
    fake = FakeBlas()
    monkeypatch.setattr(unmix.parallel, "blas_thread_calls", fake.calls)
    return fake


def _workers(monkeypatch, n):
    monkeypatch.setattr(unmix.parallel, "worker_count", lambda: n)


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("unmix-worker")]


def _on_main():
    return threading.current_thread() is threading.main_thread()


class TestJobThreads:
    def test_one_per_cpu_with_a_blas_thread_setting(self, blas, monkeypatch):
        _workers(monkeypatch, 3)
        assert unmix.parallel.job_threads() == 3

    def test_the_calling_thread_alone_without_one(self, monkeypatch):
        monkeypatch.setattr(unmix.parallel, "blas_thread_calls", lambda: None)
        _workers(monkeypatch, 3)
        assert unmix.parallel.job_threads() == 1


class TestOrdered:
    def test_random_delays_keep_the_order_and_run_each_job_once(self, blas, monkeypatch):
        _workers(monkeypatch, 8)  # more threads than this machine's CPUs, most likely
        delays = np.random.default_rng(3).uniform(0.0, 0.01, 200)
        runs, threads = [0] * len(delays), set()

        def job(i):
            runs[i] += 1
            threads.add(threading.current_thread().name)
            time.sleep(delays[i])
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = list(ordered(functools.partial(job, i) for i in range(len(delays))))
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(len(delays)))
        assert runs == [1] * len(delays)
        assert "MainThread" in threads
        assert any(name.startswith("unmix-worker") for name in threads)
        assert not _helper_threads()

    @pytest.mark.parametrize("failing", ["calling thread", "helper"])
    def test_errors_are_raised_in_job_order(self, blas, monkeypatch, failing):
        _workers(monkeypatch, 3)
        threads = threading.active_count()
        ran = {}  # job -> whether it ran on the calling thread

        def job(i):
            ran[i] = _on_main()
            if i and ran[i] == (failing == "calling thread"):
                raise RuntimeError(f"job {i} failed")
            time.sleep(0.01)  # leave jobs for the failing thread to fail on
            return i

        results = []
        with pytest.raises(RuntimeError) as raised:
            for result in ordered(functools.partial(job, i) for i in range(40)):
                results.append(result)
        first_failed = int(str(raised.value).split()[1])
        assert results == list(range(first_failed))
        assert all(ran[i] != (failing == "calling thread") for i in range(1, first_failed))
        assert ran[first_failed] == (failing == "calling thread")
        assert threading.active_count() == threads
        assert blas.threads == 8

    def test_closing_early_drops_the_unstarted_jobs_and_stops_the_helpers(
        self, blas, monkeypatch
    ):
        _workers(monkeypatch, 3)
        threads = threading.active_count()
        ran = []

        def job(i):
            ran.append(i)
            time.sleep(0.02)
            return blas.threads

        results = ordered((functools.partial(job, i) for i in range(40)), ahead=40)
        assert next(results) == 1
        assert _helper_threads()
        results.close()
        assert not _helper_threads()
        assert threading.active_count() == threads
        assert blas.threads == 8
        assert len(ran) < 10

    def test_without_a_blas_thread_setting_every_job_runs_on_the_calling_thread(
        self, monkeypatch
    ):
        monkeypatch.setattr(unmix.parallel, "blas_thread_calls", lambda: None)
        _workers(monkeypatch, 4)
        threads = []

        def job(i):
            threads.append(threading.current_thread())
            return i

        assert list(ordered(functools.partial(job, i) for i in range(10))) == list(range(10))
        assert threads == [threading.main_thread()] * 10

    @pytest.mark.parametrize("ahead", [1, 2, 5])
    def test_no_job_is_taken_more_than_ahead_past_the_yielded_results(
        self, blas, monkeypatch, ahead
    ):
        _workers(monkeypatch, 4)
        delays = np.random.default_rng(ahead).uniform(0.0, 0.01, 30)
        yielded = 0
        lead = []  # per job taken: its index less the results yielded by then

        def jobs():
            for i, delay in enumerate(delays):
                lead.append(i - yielded)
                yield functools.partial(time.sleep, delay)

        for _ in ordered(jobs(), ahead=ahead):
            yielded += 1
        assert yielded == len(delays)
        assert max(lead) == ahead

    @pytest.mark.parametrize("pinned, lookahead", [(True, 3), (False, 1)])
    def test_by_default_one_job_is_taken_past_those_the_threads_run(
        self, blas, monkeypatch, pinned, lookahead
    ):
        if not pinned:  # the calling thread runs every job: one more would only hold memory
            monkeypatch.setattr(unmix.parallel, "blas_thread_calls", lambda: None)
        _workers(monkeypatch, 2)
        delays = np.random.default_rng(11).uniform(0.0, 0.01, 30)
        yielded = 0
        lead = []  # per job taken: its index less the results yielded by then

        def jobs():
            for i, delay in enumerate(delays):
                lead.append(i - yielded)
                yield functools.partial(time.sleep, delay)

        for _ in ordered(jobs()):
            yielded += 1
        assert yielded == len(delays)
        assert max(lead) == lookahead

    def test_the_calling_thread_runs_later_jobs_while_the_pool_thread_is_held(
        self, blas, monkeypatch
    ):
        _workers(monkeypatch, 2)
        on_main, held = [], []
        moved = threading.Condition()

        def job(i):
            if _on_main():
                time.sleep(0.002)  # leave the pool thread time to start a job
                with moved:
                    on_main.append(i)
                    moved.notify_all()
            else:
                with moved:
                    if not held:  # the first job on the pool's one thread waits
                        held.append(i)
                        assert moved.wait_for(lambda: sum(j > i for j in on_main) >= 3, 10)
            return i

        results = list(ordered((functools.partial(job, i) for i in range(40)), ahead=10))
        assert results == list(range(40))
        assert held and sum(j > held[0] for j in on_main) >= 3
        assert len(set(on_main)) == len(on_main)

    @pytest.mark.parametrize("pinned", [True, False])
    def test_a_job_generator_may_drain_an_ordered_of_its_own(self, blas, monkeypatch, pinned):
        if not pinned:
            monkeypatch.setattr(unmix.parallel, "blas_thread_calls", lambda: None)
        _workers(monkeypatch, 3)
        runs = []

        def job(*key):
            runs.append(key)
            time.sleep(0.001)
            return key

        def jobs():  # as WpeFrames solves its bands while the windows are read
            for i in range(12):
                inner = ordered(functools.partial(job, i, k) for k in range(5))
                yield functools.partial(job, i, *(k for _, k in inner))

        results = list(ordered(jobs()))
        assert results == [(i, 0, 1, 2, 3, 4) for i in range(12)]
        assert sorted(runs) == sorted(results + [(i, k) for i in range(12) for k in range(5)])
        assert not _helper_threads()
        assert blas.threads == 8

    def test_a_list_of_jobs_runs_each_once(self, blas, monkeypatch):
        _workers(monkeypatch, 3)
        runs = [0] * 20

        def job(i):
            runs[i] += 1
            return i

        jobs = [functools.partial(job, i) for i in range(20)]
        assert list(islice(ordered(jobs), 21)) == list(range(20))
        assert runs == [1] * 20

    @pytest.mark.parametrize("pinned", [True, False])
    def test_a_job_is_freed_before_its_result_is_yielded(self, blas, monkeypatch, pinned):
        if not pinned:
            monkeypatch.setattr(unmix.parallel, "blas_thread_calls", lambda: None)
        _workers(monkeypatch, 3)
        delays = np.random.default_rng(5).uniform(0.0, 0.005, 30)
        inputs = []

        class Window:  # what a job holds, e.g. a window's frames
            def __init__(self, i):
                self.i = i

        def job(window):
            time.sleep(delays[window.i])
            return window.i

        def make(i):
            window = Window(i)
            inputs.append(weakref.ref(window))
            return functools.partial(job, window)

        for i in ordered(make(i) for i in range(len(delays))):
            assert inputs[i]() is None, f"job {i}'s input outlived its result"


class TestOneBlasThread:
    def test_overlapping_pins_restore_the_count_when_the_last_ends(self):
        calls = unmix.parallel.blas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS thread setting found")
        get, set_ = calls
        before = get()
        set_(2)
        try:
            inner_entered, outer_left = threading.Event(), threading.Event()
            seen = []

            def inner():
                with one_blas_thread():
                    inner_entered.set()
                    assert outer_left.wait(10)
                    seen.append(get())  # the pin outlives the one that set it
                seen.append(get())

            with one_blas_thread():
                thread = threading.Thread(target=inner)
                thread.start()
                assert inner_entered.wait(10)
            outer_left.set()
            thread.join(10)
            assert not thread.is_alive()
            assert seen == [1, 2]
        finally:
            set_(before)
