"""Short-time Fourier analysis and overlap-add synthesis."""

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientInputError, ShapeError
from .signal_io import MultichannelWave


@dataclass
class StftConfig:
    """Analysis/synthesis parameters. Defaults: 32 ms hann window, 50% hop."""

    fft_size: int = 512
    window_size: int = 512
    hop: int = 256

    def __post_init__(self):
        if self.window_size <= 0 or self.hop <= 0:
            raise ValueError("window_size and hop must be positive")
        if self.fft_size < self.window_size:
            raise ValueError("fft_size must be >= window_size")
        if self.window_size % self.hop != 0:
            raise ValueError("hop must divide window_size (COLA)")

    @property
    def bins(self):
        return self.fft_size // 2 + 1

    def window(self):
        # periodic hann; exact COLA at hop = window_size / 2
        n = np.arange(self.window_size)
        return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / self.window_size))

    def frame_count(self, num_samples):
        if num_samples < self.window_size:
            raise InsufficientInputError(
                f"need at least {self.window_size} samples, got {num_samples}"
            )
        return (num_samples - self.window_size) // self.hop + 1


@dataclass
class Spectrogram:
    """Complex time-frequency tensor, shape (channels, frames, bins)."""

    data: np.ndarray
    config: StftConfig = field(default_factory=StftConfig)
    sample_rate: int = 16000

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3:
            raise ShapeError("spectrogram data must be (channels, frames, bins)")
        if self.data.shape[2] != self.config.bins:
            raise ShapeError(
                f"bin count {self.data.shape[2]} does not match config "
                f"({self.config.bins})"
            )

    @property
    def channel_count(self):
        return self.data.shape[0]

    @property
    def frame_count(self):
        return self.data.shape[1]

    @property
    def bins(self):
        return self.data.shape[2]

    def bin_frequencies(self):
        return np.arange(self.bins) * self.sample_rate / self.config.fft_size

    def frames(self, start, end):
        """Frames [start, end), the frame interface FrameSource shares."""
        return self.data[:, start:end]


_CHUNK_FRAMES = 64  # frames asked for at a time when a whole Spectrogram is collected


class FrameSource:
    """A grid of frames served one range at a time, in order of the starts.

    The frames are made from `source`, which gives the sample rate and
    channel count, on the grid of StftConfig `config`. A subclass gives
    _next(lo, end), the frames [lo, hi) for some hi > lo. Frames a range
    shares with the previous one are carried over, only the frames past
    those made so far are asked of _next, and only the frames from the
    latest start on are kept.
    """

    def __init__(self, source, config, frame_count):
        self.config = config
        self.sample_rate = source.sample_rate
        self.channel_count = source.channel_count
        self.frame_count = frame_count
        self.bins = config.bins
        self._source = source
        self._start = self._end = 0  # _data holds frames [_start, _end)
        self._data = np.empty((self.channel_count, 0, self.bins), dtype=np.complex128)

    def frames(self, start, end):
        """Frames [start, end) as a (channels, end - start, bins) array."""
        if not self._start <= start <= end <= self.frame_count:
            raise ValueError(
                f"frames [{start}, {end}) are out of order or past {self.frame_count}"
            )
        kept = self._data[:, start - self._start :]
        pieces = [kept] if kept.shape[1] else []
        made = max(self._end, start)
        while made < end:
            pieces.append(self._next(made, end))
            made += pieces[-1].shape[1]
        # A lone piece is held as made, not copied: a copy would add to the
        # peak and could change the memory layout that later steps round by.
        self._data = np.concatenate(pieces, axis=1) if len(pieces) > 1 else (pieces or [kept])[0]
        self._start, self._end = start, made
        return self._data[:, : end - start]

    def spectrogram(self):
        """All frames as one Spectrogram, made a chunk at a time."""
        data = np.empty((self.channel_count, self.frame_count, self.bins), np.complex128)
        for lo in range(0, self.frame_count, _CHUNK_FRAMES):
            hi = min(lo + _CHUNK_FRAMES, self.frame_count)
            data[:, lo:hi] = self.frames(lo, hi)
        return Spectrogram(data=data, config=self.config, sample_rate=self.sample_rate)


class StftFrames(FrameSource):
    """STFT frames of a sample source, computed one frame range at a time.

    source: a MultichannelWave or a signal_io.WaveReader (channel_count,
    sample_rate, num_samples and read(lo, hi)). Frame t covers samples
    [t*hop, t*hop + window_size); only full frames exist (no padding). Each
    range transforms only its frames past those made so far, from just the
    samples they cover.
    """

    def __init__(self, source, config=None):
        config = config or StftConfig()
        super().__init__(source, config, config.frame_count(source.num_samples))
        self._window = config.window()

    def _next(self, lo, end):
        config = self.config
        samples = self._source.read(lo * config.hop, (end - 1) * config.hop + config.window_size)
        idx = np.arange(config.window_size)[np.newaxis, :] + (
            config.hop * np.arange(end - lo)[:, np.newaxis]
        )
        return np.fft.rfft(samples[:, idx] * self._window, n=config.fft_size, axis=2)


def analyze(wave, config=None):
    """Transform a MultichannelWave (or any StftFrames source) to a
    Spectrogram of all its full frames."""
    return StftFrames(wave, config).spectrogram()


class OverlapAdd:
    """Overlap-add inverse STFT of frames pushed in order, with
    synthesis-window normalization.

    Each push returns the samples that no later frame overlaps; the push of
    the last frame returns the rest, up to (frame_count - 1) * hop +
    window_size samples in all. Reconstruction is exact wherever the
    window-square sum is at its interior value. Near the edges the
    normalization is floored at 1e-2 of its largest value, so that modified
    (non-windowed-consistent) spectrograms cannot be amplified by the
    vanishing window tails. The samples equal a whole-signal overlap-add:
    each is accumulated in the same order.

    The running sums are held hop by hop, as (channels, hops, hop) and
    (hops, hop) arrays: part r of n pushed frames adds to hops r to
    r + n - 1 through one slice, a view. push windows its inverse
    transforms in place and copies no frame.
    """

    def __init__(self, config, channels, frame_count):
        self.config = config
        self._remaining = frame_count
        self._window = config.window()
        self._window_square = self._window**2
        overlap = config.window_size // config.hop - 1  # hops a frame shares with the next
        self._out = np.zeros((channels, overlap, config.hop))  # sums the next frame adds to
        self._norm = np.zeros((overlap, config.hop))
        # the window-square sum takes the same set of values for every frame
        # count from window_size / hop up, so its largest value is found
        # from that many frames at most
        probe = min(frame_count, config.window_size // config.hop)
        norm = np.zeros((probe - 1) * config.hop + config.window_size)
        for t in range(probe):
            norm[t * config.hop : t * config.hop + config.window_size] += self._window_square
        self._floor = 1e-2 * np.max(norm)

    def push(self, data):
        """Spectra (channels, n, bins) of the next n frames; returns the
        (channels, samples) float64 samples they complete."""
        config = self.config
        hop, size = config.hop, config.window_size
        n = data.shape[1]
        if n > self._remaining:
            raise ShapeError(f"{n} frames pushed, {self._remaining} left")
        self._remaining -= n
        segments = np.fft.irfft(data, n=config.fft_size, axis=2)[:, :, :size]
        segments *= self._window
        channels, overlap = len(self._out), len(self._norm)
        out = np.zeros((channels, n + overlap, hop))
        norm = np.zeros((n + overlap, hop))
        out[:, :overlap] = self._out
        norm[:overlap] = self._norm
        # Part r of frame t, its samples [r * hop, (r + 1) * hop), adds to
        # output hop t + r. One pass per part adds it for all n frames; with
        # r running down, every sample sums its frames in increasing t.
        for r in reversed(range(size // hop)):
            part = slice(r * hop, (r + 1) * hop)
            out[:, r : r + n] += segments[:, :, part]
            norm[r : r + n] += self._window_square[part]
        done = n if self._remaining else n + overlap
        self._out, self._norm = out[:, done:], norm[done:]
        return (out[:, :done] / np.maximum(norm[:done], self._floor)).reshape(channels, -1)


def synthesize(spec):
    """Overlap-add inverse STFT of a whole Spectrogram (see OverlapAdd).

    Output length is (frames - 1) * hop + window_size.
    """
    ola = OverlapAdd(spec.config, spec.channel_count, spec.frame_count)
    return MultichannelWave(samples=ola.push(spec.data), sample_rate=spec.sample_rate)
