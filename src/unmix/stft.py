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

    def frame_rate(self):
        return self.sample_rate / self.config.hop


def analyze(wave, config=None):
    """Transform a MultichannelWave to a Spectrogram.

    Frame t covers samples [t*hop, t*hop + window_size); only full frames are
    produced (no padding), so every channel shares the same frame grid.
    """
    config = config or StftConfig()
    x = wave.samples
    frames = config.frame_count(x.shape[1])
    win = config.window()
    idx = np.arange(config.window_size)[np.newaxis, :] + (
        config.hop * np.arange(frames)[:, np.newaxis]
    )
    segments = x[:, idx] * win  # (J, T, window)
    data = np.fft.rfft(segments, n=config.fft_size, axis=2)
    return Spectrogram(data=data, config=config, sample_rate=wave.sample_rate)


def synthesize(spec):
    """Overlap-add inverse STFT with synthesis-window normalization.

    Output length is (frames - 1) * hop + window_size; reconstruction is exact
    wherever the window-square sum is at its interior value. Near the edges
    the normalization is floored so that modified (non-windowed-consistent)
    spectrograms cannot be amplified by the vanishing window tails.
    """
    config = spec.config
    frames = spec.frame_count
    win = config.window()
    segments = np.fft.irfft(spec.data, n=config.fft_size, axis=2)[
        :, :, : config.window_size
    ]
    num_samples = (frames - 1) * config.hop + config.window_size
    out = np.zeros((spec.channel_count, num_samples))
    norm = np.zeros(num_samples)
    for t in range(frames):
        start = t * config.hop
        out[:, start : start + config.window_size] += segments[:, t] * win
        norm[start : start + config.window_size] += win**2
    out /= np.maximum(norm, 1e-2 * np.max(norm))
    return MultichannelWave(samples=out, sample_rate=spec.sample_rate)
