import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

import unmix.dereverb
import unmix.parallel
from unmix.dereverb import (
    EPSILON,
    WpeConfig,
    WpeFrames,
    _delayed_stack,
    _wpe_filters,
    wpe_block,
    wpe_stream,
)
from unmix.errors import InsufficientInputError
from unmix.metrics import si_sdr
from unmix.signal_io import MultichannelWave, circular_array
from unmix.simulator import RoomSpec, image_method_rirs, speech_like_source
from unmix.stft import Spectrogram, StftConfig, StftFrames, analyze, synthesize

FS = 16000


def _reverberant_scene(t60, seconds=4.0, seed=7):
    """Reverberant 7-channel capture plus a direct-plus-early reference.

    The reference keeps the first 50 ms of the reference-mic impulse
    response: linear-prediction dereverberation deliberately preserves the
    direct path and early reflections, so that is the signal it is judged
    against."""
    room = RoomSpec(
        dimensions=[6.0, 5.0, 3.0],
        t60=t60,
        source_positions=[[1.5, 2.5, 1.5]],
        array_center=[3.5, 3.0, 1.4],
    )
    geometry = circular_array()
    mics = geometry.positions + room.array_center
    src = speech_like_source(seconds, FS, seed=seed)
    rirs = image_method_rirs(room, room.source_positions[0], mics, FS)
    early = rirs[0].copy()
    peak = int(np.argmax(np.abs(early)))
    early[peak + int(0.05 * FS) :] = 0.0
    samples = np.stack([scipy.signal.fftconvolve(src, h)[: len(src)] for h in rirs])
    early_ref = scipy.signal.fftconvolve(src, early)[: len(src)]
    return MultichannelWave(samples, FS), early_ref


class TestWpeBlock:
    def test_anechoic_is_near_passthrough(self):
        wave, _ = _reverberant_scene(t60=0.0)
        spec = analyze(wave)
        out = wpe_block(spec)
        in_energy = np.sum(np.abs(spec.data) ** 2)
        out_energy = np.sum(np.abs(out.data) ** 2)
        assert abs(out_energy - in_energy) < 0.05 * in_energy

    def test_improves_direct_to_reverberant_ratio(self):
        wave, early_ref = _reverberant_scene(t60=0.5)
        spec = analyze(wave)
        out = wpe_block(spec)
        n = synthesize(out).samples.shape[1]
        before = si_sdr(wave.samples[0, :n], early_ref[:n])
        after = si_sdr(synthesize(out).samples[0], early_ref[:n])
        assert after > before + 1.0

    def test_weighted_residual_non_increasing_within_iteration(self):
        wave, _ = _reverberant_scene(t60=0.4)
        residuals = []
        wpe_block(analyze(wave), collect_residuals=residuals)
        assert len(residuals) == WpeConfig().iterations
        for pre, post in residuals:
            assert post <= pre + 1e-6 * pre

    def test_zero_input_gives_zero_output(self):
        spec = analyze(MultichannelWave(np.zeros((7, FS)), FS))
        out = wpe_block(spec)
        assert np.all(out.data == 0.0)

    def test_shape_preserved_and_deterministic(self):
        wave, _ = _reverberant_scene(t60=0.3, seconds=2.0)
        spec = analyze(wave)
        a = wpe_block(spec)
        b = wpe_block(spec)
        assert a.data.shape == spec.data.shape
        np.testing.assert_array_equal(a.data, b.data)

    def test_too_short_block_raises(self):
        config = WpeConfig()
        short = int((config.delay + config.taps - 1) * 256 + 511) // 1
        spec = analyze(MultichannelWave(np.zeros((2, short)), FS))
        assert spec.frame_count < config.delay + config.taps
        with pytest.raises(InsufficientInputError):
            wpe_block(spec, config)


def _einsum_iteration(data, stacked, estimate):
    """One WPE iteration with the correlations and the prediction written as
    the einsum contractions they replace; returns (filters, new estimate)."""
    eps = EPSILON
    lam = np.maximum(np.mean(np.abs(estimate) ** 2, axis=1), eps)
    weighted = stacked / lam[:, np.newaxis]
    r = np.einsum("fkt,flt->fkl", weighted, np.conj(stacked))
    p = np.einsum("fkt,fjt->fkj", weighted, np.conj(data))
    jk = r.shape[1]
    load = eps * np.maximum(np.real(np.trace(r, axis1=1, axis2=2)) / jk, eps)
    filters = np.linalg.solve(r + load[:, np.newaxis, np.newaxis] * np.eye(jk), p)
    prediction = np.einsum("fkj,fkt->fjt", np.conj(filters), stacked)
    return filters, data - prediction


@st.composite
def random_blocks(draw, bins=st.integers(2, 5)):
    """A random complex (F, J, T) block of `bins` bins and a one-iteration
    WpeConfig.

    Each frequency gets at least four frames per unknown of its normal
    equations, so the solve is well conditioned, as it is on real blocks
    (249 frames for 70 unknowns), and does not amplify last-bit differences
    in R into the filters.
    """
    bins = draw(bins)
    channels = draw(st.integers(1, 3))
    taps = draw(st.integers(1, 3))
    delay = draw(st.integers(1, 3))
    least = delay + taps + 4 * channels * taps
    frames = draw(st.integers(least, least + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (bins, channels, frames)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return data, WpeConfig(taps=taps, delay=delay, iterations=1)


def _as_spectrogram(data):
    """(F, J, T) -> Spectrogram (J, T, F) with a config of F bins."""
    fft_size = 2 * (data.shape[0] - 1)
    config = StftConfig(fft_size=fft_size, window_size=fft_size, hop=1)
    return Spectrogram(np.transpose(data, (1, 2, 0)), config=config)


def _scaled(expected):
    """Absolute tolerance 1e-12 of the largest element: the summation order
    differs, so an element much smaller than the rest can carry a relative
    error above 1e-12 while the arrays agree to 1e-13 of their size."""
    return 1e-12 * np.max(np.abs(expected))


class TestMatmulMatchesEinsum:
    @settings(max_examples=100, deadline=None)
    @given(block=random_blocks())
    def test_filters(self, block):
        data, config = block
        stacked = _delayed_stack(data, config.taps, config.delay)
        filters = _wpe_filters(data, stacked, data)[0]
        expected, _ = _einsum_iteration(data, stacked, data)
        np.testing.assert_allclose(filters, expected, rtol=1e-12, atol=_scaled(expected))

    @settings(max_examples=100, deadline=None)
    @given(block=random_blocks())
    def test_one_block_iteration(self, block):
        data, config = block
        out = wpe_block(_as_spectrogram(data), config)
        stacked = _delayed_stack(data, config.taps, config.delay)
        _, expected = _einsum_iteration(data, stacked, data)
        np.testing.assert_allclose(
            np.transpose(out.data, (2, 0, 1)), expected, rtol=1e-12, atol=_scaled(expected)
        )


def _filters_with_division_and_eye(data, stacked, estimate, out=None):
    """_wpe_filters with the weighting as a division by lambda, the
    conjugates as new arrays and the ridge load added through a full
    identity matrix: the reference the in-place steps must equal bit for bit."""
    eps = EPSILON
    power = np.abs(estimate) ** 2
    lam = np.maximum(np.mean(power, axis=1), eps)
    weighted = np.conj(stacked, out=None if out is None else out[: len(stacked)])
    weighted /= lam[:, np.newaxis]
    r = np.conj(weighted @ stacked.transpose(0, 2, 1))
    p = np.conj(weighted @ data.transpose(0, 2, 1))
    jk = r.shape[1]
    load = eps * np.maximum(np.real(np.trace(r, axis1=1, axis2=2)) / jk, eps)
    filters = np.linalg.solve(r + load[:, np.newaxis, np.newaxis] * np.eye(jk), p)
    return filters, lam, load, power


class TestInPlaceSteps:
    @settings(max_examples=60, deadline=None)
    @given(block=random_blocks(), iterations=st.integers(1, 3), silent_frames=st.integers(0, 8))
    def test_wpe_block_equals_the_reference_formula(self, block, iterations, silent_frames):
        data, config = block
        data[:, :, :silent_frames] = 0.0
        config.iterations = iterations
        spec = _as_spectrogram(data)
        residuals, expected_residuals = [], []
        out = wpe_block(spec, config, residuals)
        with mock.patch.object(unmix.dereverb, "_wpe_filters", _filters_with_division_and_eye):
            expected = wpe_block(spec, config, expected_residuals)
        np.testing.assert_array_equal(out.data, expected.data)
        assert residuals == expected_residuals


class TestObjectiveOnRandomBlocks:
    @settings(max_examples=100, deadline=None)
    @given(block=random_blocks(), iterations=st.integers(1, 4))
    def test_non_increasing_within_iteration(self, block, iterations):
        data, config = block
        config.iterations = iterations
        residuals = []
        wpe_block(_as_spectrogram(data), config, collect_residuals=residuals)
        assert len(residuals) == iterations
        for pre, post in residuals:
            assert post <= pre + 1e-12 * pre


class TestWpeStream:
    def test_single_block_matches_batch(self):
        wave, _ = _reverberant_scene(t60=0.4, seconds=3.0)
        spec = analyze(wave)
        config = WpeConfig(update_interval=1.0, context=4.0)
        streamed = wpe_stream(spec, config)
        batch = wpe_block(spec, config)
        np.testing.assert_array_equal(streamed.data, batch.data)

    def test_one_solve_per_block(self):
        wave, _ = _reverberant_scene(t60=0.4, seconds=8.0)
        spec = analyze(wave)
        config = WpeConfig()
        with mock.patch.object(
            unmix.dereverb, "wpe_block", wraps=unmix.dereverb.wpe_block
        ) as solve:
            streamed = wpe_stream(spec, config)
        # 499 frames: the first 250-frame context, then 62-frame blocks
        # ending at 312, 374, 436 and 498, and the 1-frame tail
        assert solve.call_count == 6
        context = round(config.context * spec.sample_rate / spec.config.hop)
        solved = [call.args[0].frame_count for call in solve.call_args_list]
        assert min(solved) >= min(context, spec.frame_count)
        np.testing.assert_array_equal(wpe_stream(spec, config).data, streamed.data)

    def test_stream_improves_reverberant_signal(self):
        wave, early_ref = _reverberant_scene(t60=0.5, seconds=6.0)
        spec = analyze(wave)
        out = wpe_stream(spec)
        n = synthesize(out).samples.shape[1]
        before = si_sdr(wave.samples[0, :n], early_ref[:n])
        after = si_sdr(synthesize(out).samples[0], early_ref[:n])
        assert after > before

    def test_output_shape_matches_input(self):
        wave, _ = _reverberant_scene(t60=0.2, seconds=3.0)
        spec = analyze(wave)
        out = wpe_stream(spec)
        assert out.data.shape == spec.data.shape


class TestChunkedBins:
    @settings(max_examples=60, deadline=None)
    @given(
        block=random_blocks(bins=st.integers(2, 40)),
        iterations=st.integers(1, 3),
        data=st.data(),
    )
    def test_any_chunk_width_matches_the_whole_band(self, block, iterations, data):
        block_data, config = block
        config.iterations = iterations
        spec = _as_spectrogram(block_data)
        width = data.draw(st.integers(1, spec.bins), label="width")

        def run(chunk_bins):
            residuals = []
            with mock.patch.object(unmix.dereverb, "_CHUNK_BINS", chunk_bins):
                out = wpe_block(spec, config, residuals)
            return out.data, residuals

        out, residuals = run(width)
        whole_out, whole_residuals = run(spec.bins)
        np.testing.assert_array_equal(out, whole_out)
        np.testing.assert_allclose(residuals, whole_residuals, rtol=1e-12)


def _fixed_block(bins):
    """A seeded random (bins, 2, 60) block and a two-iteration WpeConfig."""
    rng = np.random.default_rng(5)
    shape = (bins, 2, 60)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return data, WpeConfig(taps=3, delay=2, iterations=2)


def _blas_threads():
    """The loaded OpenBLAS's thread count; skips the test where none is found."""
    calls = unmix.parallel.blas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread setting found")
    return calls[0]()


class TestBandsOnThreads:
    @settings(max_examples=40, deadline=None)
    @given(
        block=random_blocks(bins=st.integers(2 * unmix.dereverb._CHUNK_BINS + 1, 40)),
        iterations=st.integers(1, 3),
    )
    def test_worker_count_does_not_change_the_output(self, block, iterations):
        block_data, config = block
        config.iterations = iterations
        spec = _as_spectrogram(block_data)

        def run(workers):
            residuals = []
            with mock.patch.object(unmix.parallel, "worker_count", return_value=workers):
                out = wpe_block(spec, config, residuals)
            return out.data, residuals

        out, residuals = run(1)
        out3, residuals3 = run(3)
        np.testing.assert_array_equal(out, out3)
        assert residuals == residuals3

    def test_bands_run_with_one_blas_thread_and_restore_the_count(self, monkeypatch):
        before = _blas_threads()
        wpe_bins = unmix.dereverb._wpe_bins
        during = []

        def recording(*args):
            during.append(unmix.parallel.blas_thread_calls()[0]())
            return wpe_bins(*args)

        monkeypatch.setattr(unmix.dereverb, "_wpe_bins", recording)
        monkeypatch.setattr(unmix.parallel, "worker_count", lambda: 3)
        data, config = _fixed_block(bins=10)
        wpe_block(_as_spectrogram(data), config)
        bands = len(range(0, 10, unmix.dereverb._CHUNK_BINS))
        assert during == [1] * bands
        assert _blas_threads() == before

    @pytest.mark.parametrize("failing", ["main thread", "helper thread"])
    def test_error_in_a_band_reaches_the_caller(self, monkeypatch, failing):
        before = _blas_threads()
        threads = threading.active_count()
        wpe_bins = unmix.dereverb._wpe_bins

        def failing_on(*args):
            on_main = threading.current_thread() is threading.main_thread()
            if on_main == (failing == "main thread"):
                raise RuntimeError(f"band failed on the {failing}")
            time.sleep(0.05)  # leave bands for the failing thread to fail on
            return wpe_bins(*args)

        monkeypatch.setattr(unmix.dereverb, "_wpe_bins", failing_on)
        monkeypatch.setattr(unmix.parallel, "worker_count", lambda: 3)
        data, config = _fixed_block(bins=24)
        with pytest.raises(RuntimeError, match=failing):
            wpe_block(_as_spectrogram(data), config)
        assert threading.active_count() == threads
        assert _blas_threads() == before

    def test_residuals_are_summed_in_band_order(self, monkeypatch):
        _blas_threads()
        data, config = _fixed_block(bins=24)
        spec = _as_spectrogram(data)
        monkeypatch.setattr(unmix.parallel, "worker_count", lambda: 1)
        in_order = []
        wpe_block(spec, config, collect_residuals=in_order)
        wpe_bins = unmix.dereverb._wpe_bins

        def first_band_last(band, *args):
            if np.array_equal(band, data[: unmix.dereverb._CHUNK_BINS]):
                time.sleep(0.1)
            return wpe_bins(band, *args)

        monkeypatch.setattr(unmix.dereverb, "_wpe_bins", first_band_last)
        monkeypatch.setattr(unmix.parallel, "worker_count", lambda: 3)
        residuals = []
        wpe_block(spec, config, collect_residuals=residuals)
        assert residuals == in_order

    def test_without_a_blas_thread_setting_one_workspace_serves_every_band(self, monkeypatch):
        wpe_bins = unmix.dereverb._wpe_bins
        workspaces = []

        def recording(data, config, residuals, workspace):
            workspaces.append(workspace)
            return wpe_bins(data, config, residuals, workspace)

        monkeypatch.setattr(unmix.dereverb, "_wpe_bins", recording)
        monkeypatch.setattr(unmix.parallel, "blas_thread_calls", lambda: None)
        monkeypatch.setattr(unmix.parallel, "worker_count", lambda: 2)
        data, config = _fixed_block(bins=10)
        wpe_block(_as_spectrogram(data), config)
        assert len(workspaces) == len(range(0, 10, unmix.dereverb._CHUNK_BINS))
        assert len({id(w) for w in workspaces}) == 1

    def test_without_a_blas_thread_setting_bands_run_on_the_calling_thread(self, monkeypatch):
        data, config = _fixed_block(bins=10)
        spec = _as_spectrogram(data)
        pinned = wpe_block(spec, config)
        wpe_bins = unmix.dereverb._wpe_bins
        threads = []

        def recording(*args):
            threads.append(threading.current_thread())
            return wpe_bins(*args)

        monkeypatch.setattr(unmix.dereverb, "_wpe_bins", recording)
        monkeypatch.setattr(unmix.parallel, "blas_thread_calls", lambda: None)
        monkeypatch.setattr(unmix.parallel, "worker_count", lambda: 3)
        out = wpe_block(spec, config)
        bands = len(range(0, 10, unmix.dereverb._CHUNK_BINS))
        assert threads == [threading.main_thread()] * bands
        np.testing.assert_array_equal(out.data, pinned.data)


WPE_STFT = StftConfig(fft_size=8, window_size=8, hop=4)  # 5 bins, 4000 frames/s


@st.composite
def wpe_frame_requests(draw):
    """A random multichannel wave with a WpeConfig of a few frames per block,
    and in-order frame ranges of its WpeFrames.

    The recording may be shorter than one block or one context, and its
    last block shorter than the others; every context holds at least
    delay + taps frames.
    """
    taps, delay = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    block = draw(st.integers(delay + taps, 12))
    context = draw(st.integers(block, 3 * block))
    frames = draw(st.integers(delay + taps, 5 * block))
    rate = WPE_STFT.hop * 4000
    config = WpeConfig(
        taps=taps, delay=delay, iterations=1,
        update_interval=block / 4000, context=context / 4000,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = (frames - 1) * WPE_STFT.hop + WPE_STFT.window_size
    wave = MultichannelWave(rng.standard_normal((draw(st.integers(1, 2)), samples)), rate)
    starts = sorted(draw(st.lists(st.integers(0, frames), min_size=1, max_size=6)))
    ranges = [(lo, draw(st.integers(lo, frames))) for lo in starts]
    return wave, config, ranges


def _reference_wpe_stream(spec, config):
    """WPE of a Spectrogram by the block rule, written out block by block:
    the first context is one block; then a block per update interval, each
    solved on the context that ends where it ends."""
    frame_rate = spec.sample_rate / spec.config.hop
    block = int(round(config.update_interval * frame_rate))
    context = max(int(round(config.context * frame_rate)), block)
    total = spec.frame_count
    blocks = [(0, min(context, total))]
    while blocks[-1][1] < total:
        start = blocks[-1][1]
        blocks.append((start, min(start + block, total)))
    out = np.empty_like(spec.data)
    for start, end in blocks:
        first = max(0, end - context)
        solved = wpe_block(Spectrogram(spec.data[:, first:end], spec.config, spec.sample_rate), config)
        out[:, start:end] = solved.data[:, start - first :]
    return out


class TestWpeFrames:
    @settings(max_examples=60, deadline=None)
    @given(request=wpe_frame_requests())
    def test_ranges_match_wpe_stream(self, request):
        wave, config, ranges = request
        spec = analyze(wave, WPE_STFT)
        expected = _reference_wpe_stream(spec, config)
        np.testing.assert_array_equal(wpe_stream(spec, config).data, expected)
        frames = WpeFrames(StftFrames(wave, WPE_STFT), config)
        for start, end in ranges:
            np.testing.assert_array_equal(frames.frames(start, end), expected[:, start:end])

    @pytest.mark.parametrize("frames", [50, 130])  # within one context, and past it
    def test_the_stft_frames_are_let_go_once_the_last_block_is_served(self, frames):
        samples = (frames - 1) * WPE_STFT.hop + WPE_STFT.window_size
        wave = MultichannelWave(np.random.default_rng(frames).standard_normal((2, samples)), 16000)
        config = WpeConfig(taps=2, delay=1, iterations=1, update_interval=0.005, context=0.015)
        stft = StftFrames(wave, WPE_STFT)
        stft_alive = weakref.ref(stft)
        wpe = WpeFrames(stft, config)  # 20-frame blocks on 60-frame contexts
        del stft
        for lo in range(0, frames, 10):
            wpe.frames(lo, lo + 10)
        assert stft_alive() is None

    def test_out_of_order_range_raises(self):
        wave = MultichannelWave(np.ones((1, 400)), 16000)
        frames = WpeFrames(StftFrames(wave, WPE_STFT), WpeConfig(taps=1, delay=1))
        frames.frames(10, 20)
        with pytest.raises(ValueError, match="out of order"):
            frames.frames(5, 20)

    @pytest.mark.parametrize("key", ["update_interval", "context"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_rejects_non_positive_or_non_finite(self, key, value):
        with pytest.raises(ValueError, match=key):
            WpeConfig(**{key: value})
