import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unmix.dereverb
import unmix.masks
import unmix.parallel
import unmix.stitcher
from unmix import beamformer
from unmix.beamformer import beamform_window, window_covariances
from unmix.dereverb import WpeConfig, WpeFrames
from unmix.errors import InsufficientInputError, ShapeError
from unmix.masks import (
    ChannelSwappingProvider,
    MaskSet,
    OracleMaskProvider,
    merge_heads_if_same_doa,
    normalize_masks,
)
from unmix.metrics import si_sdr
from unmix.signal_io import circular_array
from unmix.stft import FrameSource, Spectrogram, StftConfig, synthesize
from unmix.stitcher import (
    StitchState,
    WindowPlan,
    align_and_emit,
    alignment_cost,
    plan_windows,
    run_pipeline,
    separate_windows,
)

from conftest import plane_wave_spectrogram


class TestPlanWindows:
    def test_single_window(self):
        assert plan_windows(150, WindowPlan(150, 38)) == [(0, 150)]

    def test_documented_arithmetic_case(self):
        windows = plan_windows(226, WindowPlan(150, 38))
        assert [w[0] for w in windows] == [0, 38, 76]
        assert windows[-1][1] == 226

    @pytest.mark.parametrize("total", [150, 151, 226, 400, 1000])
    def test_gap_free_coverage(self, total):
        plan = WindowPlan(150, 38)
        windows = plan_windows(total, plan)
        covered = np.zeros(total, dtype=bool)
        for s, e in windows:
            assert e - s == plan.window_frames
            covered[s:e] = True
        assert covered.all()
        for (s0, e0), (s1, e1) in zip(windows, windows[1:]):
            assert s1 < e0  # consecutive windows overlap

    def test_too_short_raises(self):
        with pytest.raises(InsufficientInputError):
            plan_windows(100, WindowPlan(150, 38))


class TestAlignmentCost:
    def test_identical_identity_cost_zero(self, rng):
        x = rng.uniform(0, 1, (2, 10, 5))
        assert alignment_cost(x, x, (0, 1)) == 0.0

    def test_swapped_prev(self, rng):
        x = rng.uniform(0.1, 1, (2, 10, 5))
        swapped = x[::-1]
        assert alignment_cost(x, swapped, (0, 1)) > 0.0
        assert alignment_cost(x, swapped, (1, 0)) == 0.0

    def test_matches_direct_double_sum(self, rng):
        a = rng.uniform(0, 1, (2, 6, 4))
        b = rng.uniform(0, 1, (2, 6, 4))
        for perm in ((0, 1), (1, 0)):
            expected = 0.0
            for i in range(2):
                for t in range(6):
                    for f in range(4):
                        expected += (a[i, t, f] - b[perm[i], t, f]) ** 2
            assert alignment_cost(a, b, perm) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            alignment_cost(np.zeros((2, 4, 3)), np.zeros((2, 5, 3)), (0, 1))

    @settings(max_examples=100, deadline=None)
    @given(
        frames=st.integers(1, 40),
        bins=st.integers(1, 40),
        reversed_prev=st.booleans(),
        reversed_curr=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_sum_over_a_reordered_copy(
        self, frames, bins, reversed_prev, reversed_curr, seed
    ):
        # the overlaps as align_and_emit passes them: frame ranges of whole
        # windows, whose heads may be reversed views
        rng = np.random.default_rng(seed)
        prev = rng.uniform(0, 1, (2, frames + 3, bins))[::-1 if reversed_prev else 1, 3:]
        curr = rng.uniform(0, 1, (2, frames + 5, bins))[::-1 if reversed_curr else 1, :frames]
        for perm in ((0, 1), (1, 0)):
            expected = float(np.sum((prev - curr[list(perm)]) ** 2))
            assert alignment_cost(prev, curr, perm) == expected


def _activity_spectrogram(rng, config, frames, segments_per_channel, geometry):
    """Two STFT-domain plane-wave talkers with alternating activity."""
    full = [
        plane_wave_spectrogram(
            geometry, az, frames=frames, config=config, seed=seed
        ).data
        for az, seed in ((20.0, 11), (200.0, 12))
    ]
    sources = []
    for ch, segments in enumerate(segments_per_channel):
        gate = np.zeros(frames)
        for lo, hi in segments:
            gate[lo:hi] = 1.0
        sources.append(full[ch] * gate[np.newaxis, :, np.newaxis])
    mixture = Spectrogram(
        data=sources[0] + sources[1], config=config, sample_rate=16000
    )
    refs = [
        Spectrogram(data=s[:1].copy(), config=config, sample_rate=16000)
        for s in sources
    ]
    return mixture, refs


def _zero_like(spec):
    return Spectrogram(
        data=np.zeros((1,) + spec.data.shape[1:], dtype=np.complex128),
        config=spec.config,
        sample_rate=spec.sample_rate,
    )


def _oracle_provider(mixture, refs):
    return OracleMaskProvider(mixture, refs, _zero_like(mixture))


@pytest.fixture(scope="module")
def swap_scene():
    """A 450-frame two-talker scene, its oracle provider and the plain
    masking output under the default STFT and a 150/38-frame plan."""
    geometry = circular_array()
    mixture, refs = _activity_spectrogram(
        None, StftConfig(), 450, [[(0, 280)], [(170, 450)]], geometry
    )
    provider = _oracle_provider(mixture, refs)
    plain = run_pipeline(mixture, provider, WindowPlan(150, 38), "masking", geometry)
    return mixture, provider, plain, geometry


class TestAlignAndEmit:
    def _mask_set(self, rng, frames=150, bins_=257):
        return MaskSet(
            speech=rng.uniform(0, 1, (2, frames, bins_)),
            noise=np.zeros((frames, bins_)),
        )

    def test_first_window_emits_everything(self, rng):
        mset = self._mask_set(rng)
        state, emit, permuted = align_and_emit(
            StitchState(), mset, np.ones((150, 257)), (0, 150)
        )
        assert emit == (0, 150)
        assert state.permutation == (0, 1)
        np.testing.assert_array_equal(permuted.speech, mset.speech)

    @pytest.mark.parametrize("swapped", [False, True])
    def test_masks_and_magnitudes_are_views_of_the_window(self, rng, swapped):
        mset = self._mask_set(rng)
        ref_mag = rng.uniform(0.5, 1.0, (150, 257))
        state, _, _ = align_and_emit(StitchState(), mset, ref_mag, (0, 150))
        shifted = mset.speech[:, 38:] * ref_mag[38:]
        next_speech = np.concatenate([shifted, rng.uniform(0, 1, (2, 38, 257))], axis=1)
        next_ref = np.ones((150, 257))
        next_mset = MaskSet(speech=next_speech[::-1] if swapped else next_speech,
                            noise=np.zeros((150, 257)))
        state, _, permuted = align_and_emit(state, next_mset, next_ref, (38, 188))
        assert state.permutation == ((1, 0) if swapped else (0, 1))
        np.testing.assert_array_equal(permuted.speech, next_speech)
        assert np.shares_memory(permuted.speech, next_mset.speech)
        assert permuted.noise is next_mset.noise
        # the magnitudes kept for the next window are the window's product,
        # in the provider's head order, seen through a view
        mags = state.previous_masked_mags
        np.testing.assert_array_equal(mags, next_speech * next_ref)
        product = mags if mags.base is None else mags.base
        assert np.shares_memory(mags, product)
        np.testing.assert_array_equal(product, next_mset.speech * next_ref)

    def test_swap_detected(self, rng):
        mset = self._mask_set(rng)
        ref_mag = rng.uniform(0.5, 1.0, (150, 257))
        state, _, _ = align_and_emit(StitchState(), mset, ref_mag, (0, 150))
        next_mset = MaskSet(
            speech=np.concatenate(
                [mset.speech[:, 38:], rng.uniform(0, 1, (2, 38, 257))], axis=1
            ),
            noise=np.zeros((150, 257)),
        ).permuted((1, 0))
        next_ref = np.concatenate([ref_mag[38:], rng.uniform(0.5, 1, (38, 257))])
        state2, emit, permuted = align_and_emit(state, next_mset, next_ref, (38, 188))
        assert state2.permutation == (1, 0)
        assert emit == (150, 188)
        np.testing.assert_array_equal(permuted.speech, next_mset.speech[::-1])

    def test_consistent_provider_keeps_identity(self, rng):
        mset = self._mask_set(rng)
        ref_mag = rng.uniform(0.5, 1.0, (150, 257))
        state, _, _ = align_and_emit(StitchState(), mset, ref_mag, (0, 150))
        next_mset = MaskSet(
            speech=np.concatenate(
                [mset.speech[:, 38:], rng.uniform(0, 1, (2, 38, 257))], axis=1
            ),
            noise=np.zeros((150, 257)),
        )
        next_ref = np.concatenate([ref_mag[38:], rng.uniform(0.5, 1, (38, 257))])
        state2, _, _ = align_and_emit(state, next_mset, next_ref, (38, 188))
        assert state2.permutation == (0, 1)

    def test_equal_costs_tie_break_identity(self, rng):
        speech = rng.uniform(0, 1, (1, 150, 257)).repeat(2, axis=0)
        mset = MaskSet(speech=speech, noise=np.zeros((150, 257)))
        ref_mag = np.ones((150, 257))
        state, _, _ = align_and_emit(StitchState(), mset, ref_mag, (0, 150))
        state2, _, _ = align_and_emit(state, mset, ref_mag, (38, 188))
        assert state2.permutation == (0, 1)


class TestRunPipeline:
    config = StftConfig()
    plan = WindowPlan(150, 38)

    def test_zero_input_two_zero_streams(self, geometry):
        spec = Spectrogram(
            np.zeros((7, 200, self.config.bins)), self.config, 16000
        )

        class ZeroProvider:
            def mask_for_window(self, c, s, e):
                return MaskSet(
                    speech=np.zeros((2, e - s, 257)), noise=np.zeros((e - s, 257))
                )

        out0, out1 = run_pipeline(spec, ZeroProvider(), self.plan, "masking", geometry)
        assert np.all(out0.data == 0.0)
        assert np.all(out1.data == 0.0)

    def test_single_speaker_masking(self, rng, geometry):
        mixture, refs = _activity_spectrogram(
            rng, self.config, 400, [[(0, 400)], []], geometry
        )
        provider = _oracle_provider(mixture, refs)
        out0, out1 = run_pipeline(mixture, provider, self.plan, "masking", geometry)
        est = synthesize(out0).samples[0]
        ref = synthesize(refs[0]).samples[0]
        assert si_sdr(est, ref) >= 20.0
        e1 = np.sum(np.abs(out1.data) ** 2)
        e0 = np.sum(np.abs(out0.data) ** 2)
        assert e1 < e0 * 1e-4  # idle channel below -40 dB

    def test_two_speaker_masking_against_irm_bound(self, rng, geometry):
        mixture, refs = _activity_spectrogram(
            rng,
            self.config,
            400,
            [[(0, 250)], [(150, 400)]],
            geometry,
        )
        provider = _oracle_provider(mixture, refs)

        # oracle-IRM upper bound computed first on the same scene, full length
        from unmix.masks import oracle_masks

        irm = oracle_masks(mixture, refs, _zero_like(mixture))
        bounds = []
        for i in range(2):
            bounded = Spectrogram(
                (irm.speech[i] * mixture.data[0])[np.newaxis],
                self.config,
                16000,
            )
            bounds.append(
                si_sdr(synthesize(bounded).samples[0], synthesize(refs[i]).samples[0])
            )

        out = run_pipeline(mixture, provider, self.plan, "masking", geometry)
        for i in range(2):
            est = synthesize(out[i]).samples[0]
            ref = synthesize(refs[i]).samples[0]
            assert si_sdr(est, ref) >= bounds[i] - 2.0

    def test_emitted_frames_partition_timeline(self, rng):
        plan = WindowPlan(150, 38)
        total = 500
        emitted = []
        state = StitchState()
        for s, e in plan_windows(total, plan):
            mset = MaskSet(
                speech=rng.uniform(0, 1, (2, e - s, 257)),
                noise=np.zeros((e - s, 257)),
            )
            state, emit, _ = align_and_emit(
                state, mset, rng.uniform(0, 1, (e - s, 257)), (s, e)
            )
            emitted.append(emit)
        coverage = np.zeros(total, dtype=int)
        for lo, hi in emitted:
            coverage[lo:hi] += 1
        assert np.all(coverage == 1)

    def test_provider_side_swaps_do_not_change_output(self, rng, geometry):
        mixture, refs = _activity_spectrogram(
            rng, self.config, 450, [[(0, 280)], [(170, 450)]], geometry
        )
        plain = run_pipeline(
            mixture, _oracle_provider(mixture, refs), self.plan, "masking", geometry
        )
        swapping = ChannelSwappingProvider(_oracle_provider(mixture, refs), seed=99)
        swapped = run_pipeline(mixture, swapping, self.plan, "masking", geometry)
        order = (1, 0) if swapping.swaps[0] else (0, 1)
        for i in range(2):
            np.testing.assert_array_equal(swapped[i].data, plain[order[i]].data)

    @settings(max_examples=50, deadline=None)
    @given(swaps=st.lists(st.booleans(), min_size=9, max_size=9))
    def test_any_head_swap_pattern_leaves_output_bit_identical(self, swap_scene, swaps):
        mixture, provider, plain, geometry = swap_scene
        assert len(plan_windows(mixture.frame_count, self.plan)) == len(swaps)

        class SwappedProvider:
            def mask_for_window(self, c, s, e):
                mset = provider.mask_for_window(c, s, e)
                return mset.permuted((1, 0)) if swaps[c] else mset

        swapped = run_pipeline(mixture, SwappedProvider(), self.plan, "masking", geometry)
        order = (1, 0) if swaps[0] else (0, 1)
        for i in range(2):
            np.testing.assert_array_equal(swapped[i].data, plain[order[i]].data)

    def test_streaming_causality(self, rng, geometry):
        # changing the provider's output for later windows must not affect
        # frames emitted before those windows
        mixture, refs = _activity_spectrogram(
            rng, self.config, 400, [[(0, 250)], [(150, 400)]], geometry
        )
        base_provider = _oracle_provider(mixture, refs)

        class TamperedProvider:
            def mask_for_window(self, c, s, e):
                mset = base_provider.mask_for_window(c, s, e)
                if c >= 4:
                    mset = MaskSet(
                        speech=np.random.default_rng(c).uniform(
                            0, 1, mset.speech.shape
                        ),
                        noise=mset.noise,
                    )
                return mset

        a = run_pipeline(mixture, base_provider, self.plan, "masking", geometry)
        b = run_pipeline(mixture, TamperedProvider(), self.plan, "masking", geometry)
        windows = plan_windows(400, self.plan)
        boundary = windows[3][1]  # last frame emitted before window 4
        for i in range(2):
            np.testing.assert_array_equal(
                a[i].data[:, :boundary], b[i].data[:, :boundary]
            )


class _FixedProvider:
    def __init__(self, mask_set):
        self.mask_set = mask_set

    def mask_for_window(self, c, s, e):
        return self.mask_set


class TestBeamformingStatistics:
    """Each beamforming window computes its covariance stack and speech-head
    eigendecomposition once; only a merge recomputes them."""

    plan = WindowPlan(150, 38)

    def test_unmerged_window_computes_covariances_and_eigh_once(
        self, rng, geometry, monkeypatch
    ):
        mixture, refs = _activity_spectrogram(
            rng, StftConfig(), 150, [[(0, 150)], [(0, 150)]], geometry
        )
        cov_calls, eigh_shapes = [], []
        sig_cov, eigh = beamformer.sig_cov, np.linalg.eigh
        monkeypatch.setattr(
            beamformer, "sig_cov", lambda *a: cov_calls.append(a) or sig_cov(*a)
        )
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: eigh_shapes.append(a.shape) or eigh(a)
        )
        # the MVDR chain runs once on the stack of both speech heads
        stages = ["principal_component", "mvdr_weights", "apply_weights", "gain_adjust"]
        stage_calls = {name: 0 for name in stages + ["_require_hermitian"]}

        def counted(name, function):
            def call(*args):
                stage_calls[name] += 1
                return function(*args)

            return call

        for name in stage_calls:
            monkeypatch.setattr(beamformer, name, counted(name, getattr(beamformer, name)))
        out = run_pipeline(
            mixture, _oracle_provider(mixture, refs), self.plan, "beamforming", geometry
        )
        assert len(cov_calls) == 1
        assert eigh_shapes == [(2, mixture.bins, 7, 7)]
        assert stage_calls == {**dict.fromkeys(stages, 1), "_require_hermitian": 3}
        assert all(np.sum(np.abs(o.data) ** 2) > 0.0 for o in out)  # not merged

    def test_merged_window_beamforms_from_the_merged_masks(self, rng, geometry):
        spec = plane_wave_spectrogram(geometry, 30.0, frames=150)
        data = spec.data + 0.05 * (
            rng.standard_normal(spec.data.shape) + 1j * rng.standard_normal(spec.data.shape)
        )
        spec = Spectrogram(data=data, config=spec.config, sample_rate=16000)
        split = rng.uniform(0.2, 0.8, (spec.frame_count, spec.bins))
        provided = MaskSet(
            speech=np.stack([0.9 * split, 0.9 * (1.0 - split)]),
            noise=np.full(split.shape, 0.1),
        )
        mset = normalize_masks(provided)  # as the stitcher sees them
        merged = merge_heads_if_same_doa(mset, spec, geometry)
        assert merged is not mset
        out = run_pipeline(
            spec, _FixedProvider(provided), self.plan, "beamforming", geometry
        )
        expected = beamform_window(
            data, merged, geometry.reference_index, window_covariances(data, merged)
        )
        for i in range(2):
            np.testing.assert_array_equal(out[i].data[0], expected[i])

    def test_head_swaps_leave_beamforming_output_bit_identical(self, rng, geometry):
        mixture, refs = _activity_spectrogram(
            rng, StftConfig(), 300, [[(0, 200)], [(100, 300)]], geometry
        )
        plain = run_pipeline(
            mixture, _oracle_provider(mixture, refs), self.plan, "beamforming", geometry
        )
        swapping = ChannelSwappingProvider(_oracle_provider(mixture, refs), seed=3)
        swapped = run_pipeline(mixture, swapping, self.plan, "beamforming", geometry)
        assert len(set(swapping.swaps.values())) == 2
        order = (1, 0) if swapping.swaps[0] else (0, 1)
        for i in range(2):
            np.testing.assert_array_equal(swapped[i].data, plain[order[i]].data)


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("unmix-worker")]


class TestBeamformingPipeline:
    """Beamforming windows run on helper threads and the calling thread, and
    are stitched and yielded in window order."""

    plan = WindowPlan(150, 38)

    @pytest.fixture
    def scene(self, geometry):
        mixture, refs = _activity_spectrogram(
            None, StftConfig(), 420, [[(0, 260)], [(150, 420)]], geometry
        )
        return mixture, refs, geometry

    def _windows(self, scene, workers, provider=None):
        mixture, refs, geometry = scene
        provider = provider or _oracle_provider(mixture, refs)
        with mock.patch.object(unmix.parallel, "worker_count", return_value=workers):
            return list(
                separate_windows(mixture, provider, self.plan, "beamforming", geometry)
            )

    def test_random_delays_keep_window_order_and_output(self, scene, monkeypatch):
        mixture, refs, _ = scene
        serial = self._windows(scene, 1)
        rng = np.random.default_rng(7)
        delays = rng.uniform(0.0, [[0.005], [0.08]], (2, 40))  # reading, then the window
        provider = _oracle_provider(mixture, refs)

        class SleepingProvider:
            def mask_for_window(self, c, s, e):
                time.sleep(delays[0, c])
                return provider.mask_for_window(c, s, e)

        calls = []
        beamform = unmix.stitcher.beamform_window

        def sleeping_beamform(*args):  # helpers finish out of order, the calling thread early
            calls.append(threading.current_thread().name)
            if threading.current_thread() is not threading.main_thread():
                time.sleep(delays[1, len(calls) % 40])
            return beamform(*args)

        monkeypatch.setattr(unmix.stitcher, "beamform_window", sleeping_beamform)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = self._windows(scene, 4, SleepingProvider())
        finally:
            sys.setswitchinterval(interval)
        windows = plan_windows(mixture.frame_count, self.plan)
        assert len(calls) == len(windows) and any(n.startswith("unmix-worker") for n in calls)
        ranges = [(lo, hi) for lo, hi, _ in threaded]
        assert ranges == [(lo, hi) for lo, hi, _ in serial]
        assert ranges[0][0] == 0 and ranges[-1][1] == mixture.frame_count
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        for (lo, hi, frames), (_, _, expected) in zip(threaded, serial):
            assert frames.shape == (2, hi - lo, mixture.bins)
            np.testing.assert_array_equal(frames, expected)

    def test_the_steering_grid_is_built_on_the_calling_thread_before_any_window(
        self, scene, monkeypatch
    ):
        begun, built = [], []  # built: per grid, (on the calling thread, a window begun)
        steering, beamform = unmix.masks.steering_vectors, unmix.stitcher._beamform_unstitched

        def recording_steering(*args):
            built.append((threading.current_thread() is threading.main_thread(), bool(begun)))
            return steering(*args)

        def recording_beamform(*args):
            begun.append(threading.current_thread().name)
            return beamform(*args)

        monkeypatch.setattr(unmix.masks, "steering_vectors", recording_steering)
        monkeypatch.setattr(unmix.masks, "_doa_grid_cache", {})
        monkeypatch.setattr(unmix.stitcher, "_beamform_unstitched", recording_beamform)
        fake_blas = (lambda: 1, lambda n: None)  # with which beamforming starts helpers
        monkeypatch.setattr(unmix.parallel, "blas_thread_calls", lambda: fake_blas)
        self._windows(scene, 2)
        assert built == [(True, False)]
        assert any(name.startswith("unmix-worker") for name in begun)

    def test_with_dereverb_the_grid_is_built_after_the_first_wpe_solve(
        self, scene, monkeypatch
    ):
        mixture, refs, geometry = scene
        events = []
        wpe_block, steering = unmix.dereverb.wpe_block, unmix.masks.steering_vectors
        beamform = unmix.stitcher._beamform_unstitched

        def recording(name, function):
            def call(*args):
                result = function(*args)
                events.append(name)  # when the call returns
                return result

            return call

        monkeypatch.setattr(unmix.dereverb, "wpe_block", recording("wpe", wpe_block))
        monkeypatch.setattr(unmix.masks, "steering_vectors", recording("grid", steering))
        monkeypatch.setattr(unmix.masks, "_doa_grid_cache", {})
        monkeypatch.setattr(
            unmix.stitcher,
            "_beamform_unstitched",
            lambda *args: events.append("window") or beamform(*args),
        )
        wpe = WpeFrames(mixture, WpeConfig(taps=2, iterations=1))  # a first solve of 250 frames
        self._windows((wpe, refs, geometry), 2, _oracle_provider(mixture, refs))
        assert events[:3] == ["wpe", "grid", "window"]
        assert events.count("grid") == 1

    def test_error_in_a_helper_window_reaches_the_caller(self, scene, monkeypatch):
        threads = threading.active_count()
        mixture, refs, _ = scene
        provider = _oracle_provider(mixture, refs)

        class SlowProvider:  # leaves the windows to the helpers
            def mask_for_window(self, c, s, e):
                time.sleep(0.02)
                return provider.mask_for_window(c, s, e)

        beamform = unmix.stitcher.beamform_window

        def failing_on_helpers(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("window failed on a helper")
            return beamform(*args)

        monkeypatch.setattr(unmix.stitcher, "beamform_window", failing_on_helpers)
        with pytest.raises(RuntimeError, match="on a helper"):
            self._windows(scene, 3, SlowProvider())
        assert threading.active_count() == threads

    def test_closing_early_stops_every_helper(self, scene):
        threads = threading.active_count()
        mixture, refs, geometry = scene
        calls = unmix.parallel.blas_thread_calls()
        before = calls[0]() if calls else None
        with mock.patch.object(unmix.parallel, "worker_count", return_value=3):
            windows = separate_windows(
                mixture, _oracle_provider(mixture, refs), self.plan, "beamforming", geometry
            )
            next(windows)
            assert _helper_threads()
            windows.close()
        assert not _helper_threads()
        assert threading.active_count() == threads
        if calls:
            assert calls[0]() == before

    @pytest.mark.parametrize("chunk", [1, 2, 7, 50, 420])
    def test_windows_read_as_pieces_equal_windows_of_one_array(self, scene, chunk):
        mixture, refs, geometry = scene
        # the layout the STFT makes (channel innermost), which joined pieces keep
        data = np.ascontiguousarray(np.transpose(mixture.data, (1, 2, 0))).transpose(2, 0, 1)
        mixture = Spectrogram(data, mixture.config, mixture.sample_rate)

        class Chunks(FrameSource):  # makes its frames `chunk` at a time, past the range asked
            def _next(self, lo, end):
                return self._source.data[:, lo : lo + chunk]

        chunks = Chunks(mixture, mixture.config, mixture.frame_count)
        pieced = self._windows((chunks, refs, geometry), 2, _oracle_provider(mixture, refs))
        whole = self._windows((mixture, refs, geometry), 2)
        assert [w[:2] for w in pieced] == [w[:2] for w in whole]
        for (_, _, got), (_, _, expected) in zip(pieced, whole):
            np.testing.assert_array_equal(got, expected)


class TestMaskingPipeline:
    def test_masking_windows_start_no_helper(self, geometry, monkeypatch):
        mixture, refs = _activity_spectrogram(
            None, StftConfig(), 420, [[(0, 260)], [(150, 420)]], geometry
        )
        provider = _oracle_provider(mixture, refs)
        helpers_seen = []

        class WatchedProvider:
            def mask_for_window(self, c, s, e):
                helpers_seen.append(len(_helper_threads()))
                return provider.mask_for_window(c, s, e)

        # a BLAS thread setting and CPUs to spare, with which beamforming starts helpers
        fake_blas = (lambda: 1, lambda n: None)
        monkeypatch.setattr(unmix.parallel, "blas_thread_calls", lambda: fake_blas)
        monkeypatch.setattr(unmix.parallel, "worker_count", lambda: 3)
        windows = separate_windows(
            mixture, WatchedProvider(), WindowPlan(150, 38), "masking", geometry
        )
        for _ in windows:
            helpers_seen.append(len(_helper_threads()))
        assert len(helpers_seen) == 2 * len(plan_windows(mixture.frame_count, WindowPlan(150, 38)))
        assert helpers_seen == [0] * len(helpers_seen)
