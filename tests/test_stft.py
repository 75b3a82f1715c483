import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unmix.errors import InsufficientInputError, ShapeError
from unmix.signal_io import MultichannelWave
from unmix.stft import OverlapAdd, Spectrogram, StftConfig, StftFrames, analyze, synthesize


def naive_windowed_dft(x, config):
    """O(N^2) per-frame DFT oracle, independent of the FFT path."""
    frames = (len(x) - config.window_size) // config.hop + 1
    win = config.window()
    n = np.arange(config.fft_size)
    bins_ = config.bins
    out = np.zeros((frames, bins_), dtype=np.complex128)
    for t in range(frames):
        seg = np.zeros(config.fft_size)
        seg[: config.window_size] = (
            x[t * config.hop : t * config.hop + config.window_size] * win
        )
        for k in range(bins_):
            out[t, k] = np.sum(seg * np.exp(-2j * np.pi * k * n / config.fft_size))
    return out


def test_analyze_matches_naive_dft(rng):
    config = StftConfig(fft_size=32, window_size=32, hop=16)
    x = rng.standard_normal(200)
    spec = analyze(MultichannelWave(x, 16000), config)
    oracle = naive_windowed_dft(x, config)
    assert np.max(np.abs(spec.data[0] - oracle)) < 1e-9


def test_sinusoid_energy_concentrates_at_its_bin():
    config = StftConfig()
    fs = 16000
    k = 40
    f = k * fs / config.fft_size
    t = np.arange(fs) / fs
    spec = analyze(MultichannelWave(np.sin(2 * np.pi * f * t), fs), config)
    power = np.abs(spec.data[0]) ** 2
    # the hann main lobe spans bins k-1..k+1; no leakage beyond it
    main_lobe = power[:, k - 1 : k + 2].sum(axis=1)
    assert np.all(main_lobe / power.sum(axis=1) >= 0.99)
    assert np.all(power[:, k] >= power.max(axis=1) * (1 - 1e-9))


def test_zero_wave_gives_zero_spectrogram():
    spec = analyze(MultichannelWave(np.zeros((2, 2048)), 16000))
    assert np.all(spec.data == 0.0)


def test_frame_count_contract(rng):
    config = StftConfig()
    n = 10000
    spec = analyze(MultichannelWave(rng.standard_normal(n), 16000), config)
    assert spec.frame_count == (n - config.window_size) // config.hop + 1


def test_too_short_input_raises(rng):
    with pytest.raises(InsufficientInputError):
        analyze(MultichannelWave(rng.standard_normal(100), 16000))


def test_perfect_reconstruction_interior(rng):
    config = StftConfig()
    x = rng.standard_normal((3, 16000))
    wave = MultichannelWave(x, 16000)
    out = synthesize(analyze(wave, config)).samples
    n = out.shape[1]
    interior = slice(config.window_size, n - config.window_size)
    err = np.max(np.abs(out[:, interior] - x[:, interior]))
    assert err / np.max(np.abs(x)) < 1e-6


@settings(max_examples=100, deadline=None)
@given(
    window_size=st.sampled_from([16, 32, 64, 512]),
    overlap=st.sampled_from([2, 4, 8]),
    zero_pad=st.sampled_from([1, 2]),
    channels=st.integers(1, 3),
    windows=st.floats(3.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_perfect_reconstruction_at_random_lengths(
    window_size, overlap, zero_pad, channels, windows, seed
):
    config = StftConfig(
        fft_size=zero_pad * window_size, window_size=window_size, hop=window_size // overlap
    )
    x = np.random.default_rng(seed).standard_normal((channels, int(windows * window_size)))
    out = synthesize(analyze(MultichannelWave(x, 16000), config)).samples
    n = out.shape[1]
    assert n == (config.frame_count(x.shape[1]) - 1) * config.hop + window_size
    interior = slice(window_size, n - window_size)
    err = np.max(np.abs(out[:, interior] - x[:, interior]))
    assert err / np.max(np.abs(x)) < 1e-10


def test_zero_spectrogram_synthesizes_to_zero():
    config = StftConfig()
    spec = Spectrogram(np.zeros((1, 10, config.bins)), config, 16000)
    assert np.all(synthesize(spec).samples == 0.0)


def test_identity_mask_matches_unmasked(rng):
    config = StftConfig()
    spec = analyze(MultichannelWave(rng.standard_normal(8000), 16000), config)
    masked = Spectrogram(spec.data * 1.0, config, 16000)
    np.testing.assert_array_equal(
        synthesize(masked).samples, synthesize(spec).samples
    )


def test_parseval_consistency(rng):
    config = StftConfig()
    x = rng.standard_normal(4096)
    spec = analyze(MultichannelWave(x, 16000), config)
    win = config.window()
    # half-spectrum weighting: interior bins count twice
    weights = np.full(config.bins, 2.0)
    weights[0] = weights[-1] = 1.0
    for t in range(spec.frame_count):
        seg = x[t * config.hop : t * config.hop + config.window_size] * win
        time_energy = np.sum(seg**2)
        freq_energy = np.sum(weights * np.abs(spec.data[0, t]) ** 2) / config.fft_size
        assert abs(time_energy - freq_energy) <= 1e-6 * max(time_energy, 1e-12)


def test_bin_mismatch_raises():
    with pytest.raises(ShapeError):
        Spectrogram(np.zeros((1, 4, 100)), StftConfig(), 16000)


def whole_signal_stft(x, config):
    """The STFT of every full frame in one transform: the reference that
    frames computed a range at a time must equal bit for bit."""
    frames = config.frame_count(x.shape[1])
    idx = np.arange(config.window_size)[np.newaxis, :] + (
        config.hop * np.arange(frames)[:, np.newaxis]
    )
    return np.fft.rfft(x[:, idx] * config.window(), n=config.fft_size, axis=2)


def whole_signal_overlap_add(data, config):
    """Overlap-add of all frames into one buffer, normalized by the floored
    window-square sum: the reference for OverlapAdd pushed in chunks. The
    floor is the smallest window-square sum away from the edges, or 1e-2 of
    the largest where that smallest is 0."""
    frames = data.shape[1]
    win = config.window()
    steady = np.zeros(3 * config.window_size)
    for start in range(0, 2 * config.window_size + 1, config.hop):
        steady[start : start + config.window_size] += win**2
    interior = steady[config.window_size : 2 * config.window_size]
    floor = max(interior.min(), 1e-2 * interior.max())
    segments = np.fft.irfft(data, n=config.fft_size, axis=2)[:, :, : config.window_size]
    num_samples = (frames - 1) * config.hop + config.window_size
    out = np.zeros((data.shape[0], num_samples))
    norm = np.zeros(num_samples)
    for t in range(frames):
        start = t * config.hop
        out[:, start : start + config.window_size] += segments[:, t] * win
        norm[start : start + config.window_size] += win**2
    return out / np.maximum(norm, floor)


stft_configs = st.builds(
    lambda size, overlap, zero_pad: StftConfig(
        fft_size=zero_pad * size, window_size=size, hop=size // overlap
    ),
    size=st.sampled_from([16, 32, 64, 512]),
    overlap=st.sampled_from([2, 4, 8]),
    zero_pad=st.sampled_from([1, 2]),
)


@settings(max_examples=100, deadline=None)
@given(
    config=stft_configs,
    channels=st.integers(1, 3),
    windows=st.floats(1.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_frames_of_random_ranges_equal_whole_signal_stft(
    config, channels, windows, seed, data
):
    x = np.random.default_rng(seed).standard_normal((channels, int(windows * config.window_size)))
    reference = whole_signal_stft(x, config)
    wave = MultichannelWave(x, 16000)
    spec = analyze(wave, config)
    np.testing.assert_array_equal(spec.data, reference)
    frames = StftFrames(wave, config)
    total = frames.frame_count
    start, previous = 0, ((0, 0), ())
    for _ in range(data.draw(st.integers(1, 6))):
        start = data.draw(st.integers(start, total))
        end = data.draw(st.integers(start, total))
        pieces = frames.pieces(start, end)
        for source in (pieces, spec.pieces(start, end)):
            np.testing.assert_array_equal(np.concatenate(source, axis=1), reference[:, start:end])
        served = pieces
        if data.draw(st.booleans()):  # the joined frames too, which the source keeps instead
            served = (*pieces, frames.frames(start, end))
            np.testing.assert_array_equal(served[-1], reference[:, start:end])
        (prev_start, prev_end), prev_served = previous
        if max(start, prev_start) < min(end, prev_end):  # the frames both hold are one memory
            assert any(np.shares_memory(a, b) for a in pieces for b in prev_served)
        previous = (start, end), served


@settings(max_examples=100, deadline=None)
@given(
    config=stft_configs,
    channels=st.integers(1, 3),
    frame_count=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_overlap_add_in_random_chunks_equals_whole_signal(
    config, channels, frame_count, seed, data
):
    rng = np.random.default_rng(seed)
    shape = (channels, frame_count, config.bins)
    spectra = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    reference = whole_signal_overlap_add(spectra, config)
    spec = Spectrogram(spectra, config, 16000)
    np.testing.assert_array_equal(synthesize(spec).samples, reference)
    cuts = sorted(data.draw(st.lists(st.integers(0, frame_count), max_size=8)))
    overlap_add = OverlapAdd(config, channels, frame_count)
    pieces = [
        overlap_add.push(spectra[:, lo:hi])
        for lo, hi in zip([0, *cuts], [*cuts, frame_count])
    ]
    np.testing.assert_array_equal(np.concatenate(pieces, axis=1), reference)


@pytest.mark.parametrize("hop", [128, 256, 512])
def test_overlap_add_gives_the_edges_no_larger_gain_than_the_interior(rng, hop):
    # The gain of frame t at sample n is the factor by which its inverse
    # transform reaches the output there; each frame of random (not
    # windowed-consistent) spectra is synthesized alone to read it.
    config = StftConfig(hop=hop)
    frames, size = 8, config.window_size
    spectra = rng.standard_normal((frames, config.bins)) + 1j * rng.standard_normal(
        (frames, config.bins)
    )
    content = np.fft.irfft(spectra, n=config.fft_size, axis=1)[:, :size]
    gain = np.zeros((frames, (frames - 1) * hop + size))
    for t in range(frames):
        alone = np.zeros((1, frames, config.bins), dtype=np.complex128)
        alone[0, t] = spectra[t]
        out = synthesize(Spectrogram(alone, config, 16000)).samples[0]
        gain[t, t * hop : t * hop + size] = out[t * hop : t * hop + size] / content[t]
    largest = np.abs(gain).max(axis=0)
    edges = np.concatenate([largest[:size], largest[-size:]])
    assert edges.max() <= np.sqrt(2.0) * largest[size:-size].max()


def test_frames_out_of_order_raise(rng):
    frames = StftFrames(MultichannelWave(rng.standard_normal(4096), 16000))
    frames.frames(5, 10)
    with pytest.raises(ValueError):
        frames.frames(4, 10)
    with pytest.raises(ValueError):
        frames.frames(5, frames.frame_count + 1)


def test_overlap_add_rejects_frames_past_the_count():
    config = StftConfig()
    overlap_add = OverlapAdd(config, 1, 3)
    overlap_add.push(np.zeros((1, 2, config.bins)))
    with pytest.raises(ShapeError):
        overlap_add.push(np.zeros((1, 2, config.bins)))
