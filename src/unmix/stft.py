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

    def bin_frequencies(self, sample_rate):
        return np.arange(self.bins) * sample_rate / self.fft_size

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
        return self.config.bin_frequencies(self.sample_rate)

    def frames(self, start, end):
        """Frames [start, end), the frame interface FrameSource shares."""
        return self.data[:, start:end]

    def pieces(self, start, end):
        """Frames [start, end) as one view, the piece interface FrameSource shares."""
        return (self.data[:, start:end],)


_CHUNK_FRAMES = 64  # frames asked for at a time when a whole Spectrogram is collected


class FrameSource:
    """A grid of frames served one range at a time, in order of the starts.

    The frames are made from `source`, which gives the sample rate and
    channel count, on the grid of StftConfig `config`. A subclass gives
    _next(lo, end), the frames [lo, hi) for some hi > lo, as one array (a
    piece). The pieces are kept as made, each made once: a range asks _next
    only for the frames past those made so far, and only the frames from
    the latest start on are kept. The source is read forward only, so it is
    let go once the last frame is made.
    """

    dtype = np.complex128  # of the empty range served while no frame is kept

    def __init__(self, source, config, frame_count):
        self.config = config
        self.sample_rate = source.sample_rate
        self.channel_count = source.channel_count
        self.frame_count = frame_count
        self.bins = config.bins
        self._source = source
        self._start = self._end = 0  # _kept holds frames [_start, _end), in order
        self._kept = []

    def bin_frequencies(self):
        return self.config.bin_frequencies(self.sample_rate)

    def pieces(self, start, end):
        """Frames [start, end) as a tuple of (channels, n, bins) views of the
        kept pieces, which cover the range in order; an empty range is one
        empty piece. A range shares the memory of the frames it overlaps
        with any range served before, and its views keep that memory alive
        for whoever holds them, after the source has let the pieces go."""
        return self._cover(start, end)

    def _cover(self, start, end):
        if not self._start <= start <= end <= self.frame_count:
            raise ValueError(
                f"frames [{start}, {end}) are out of order or past {self.frame_count}"
            )
        if start >= self._end:  # no kept frame is in the range
            self._kept, self._end = [], start
        else:  # drop the kept frames before the latest start
            while self._start + self._kept[0].shape[1] <= start:
                self._start += self._kept.pop(0).shape[1]
            self._kept[0] = self._kept[0][:, start - self._start :]
        self._start = start
        while self._end < end:
            self._kept.append(self._next(self._end, end))
            self._end += self._kept[-1].shape[1]
        if self._end == self.frame_count:
            self._source = None
        pieces, lo = [], start
        for piece in self._kept:
            pieces.append(piece[:, : end - lo])
            lo += piece.shape[1]
            if lo >= end:
                break
        return tuple(pieces) or (np.empty((self.channel_count, 0, self.bins), self.dtype),)

    def frames(self, start, end):
        """Frames [start, end) as a (channels, end - start, bins) array. The
        kept pieces are joined into one, kept in their place, so the frames
        are held once. A lone piece is served as it is: a copy would add to
        the peak and could change the memory layout that later steps round by."""
        pieces = self._cover(start, end)
        if len(self._kept) > 1:
            self._kept = [join(self._kept)]
            return self._kept[0][:, : end - start]
        return pieces[0]

    def spectrogram(self):
        """All frames as one Spectrogram, made a chunk at a time."""
        data = np.empty((self.channel_count, self.frame_count, self.bins), np.complex128)
        for lo in range(0, self.frame_count, _CHUNK_FRAMES):
            hi = min(lo + _CHUNK_FRAMES, self.frame_count)
            data[:, lo:hi] = self.frames(lo, hi)
        return Spectrogram(data=data, config=self.config, sample_rate=self.sample_rate)


def join(pieces):
    """(channels, n, bins) pieces joined along their frames, into one array
    laid out in the memory order of the first: np.concatenate lays pieces
    of one frame out in another, in which later steps round otherwise. The
    order is read from the strides of all three axes, even one of length 1,
    whose stride numpy's own layout rules ignore."""
    first = pieces[0]
    # outermost axis first, by Python's sort: np.argsort's small arrays here
    # raised mask_long's peak RSS 0.35 MB, with the same traced peak
    order = sorted(range(3), key=lambda axis: -first.strides[axis])
    shape = (first.shape[0], sum(piece.shape[1] for piece in pieces), first.shape[2])
    out = np.empty([shape[axis] for axis in order], first.dtype)
    out = out.transpose(sorted(range(3), key=order.__getitem__))
    return np.concatenate(pieces, axis=1, out=out)


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
    window-square sum is at its interior value. The normalization is
    floored at the smallest value that sum takes away from the edges (at
    1e-2 of its largest value where that smallest is 0, as with a hop of a
    whole window), so no sample near the edges, where fewer frames overlap,
    is divided by less than an interior one: there the output fades in and
    out, and the frames of a modified (not windowed-consistent) spectrogram
    are not amplified. The samples equal a whole-signal overlap-add: each is
    accumulated in the same order.

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
        # away from the edges, each hop sums all parts of the window square,
        # added here in the order push adds them
        interior = np.zeros(config.hop)
        for part in self._window_square.reshape(-1, config.hop)[::-1]:
            interior += part
        self._floor = max(interior.min(), 1e-2 * interior.max())

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
