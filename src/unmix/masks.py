"""Mask providers plus post-processing: sum-to-one normalization and
direction-of-arrival based merging of duplicate speech heads."""

from dataclasses import dataclass

import numpy as np

from .beamformer import sig_cov
from .errors import NoSignalError, ShapeError
from .signal_io import SPEED_OF_SOUND, MaskFile

# bench/spans.py times read_mask_file by its name in this module, which
# FileMaskProvider no longer calls; kept so that its hook still resolves
from .signal_io import read_mask_file  # noqa: F401

EPS = 1e-10


@dataclass
class MaskSet:
    """Real masks for one window: two speech heads and one noise head.

    speech: (2, frames, bins) in [0, 1]; noise: (frames, bins) in [0, 1].
    """

    speech: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        self.speech = np.asarray(self.speech, dtype=np.float64)
        self.noise = np.asarray(self.noise, dtype=np.float64)
        if self.speech.ndim != 3 or self.speech.shape[0] != 2:
            raise ShapeError("speech masks must be (2, frames, bins)")
        if self.noise.shape != self.speech.shape[1:]:
            raise ShapeError("noise mask must match speech mask frames x bins")

    def permuted(self, permutation):
        """Return a copy with the speech heads reordered; noise is untouched."""
        return MaskSet(
            speech=self.speech[list(permutation)],
            noise=self.noise.copy(),
        )


def oracle_masks(mixture, sources, noise):
    """Ideal ratio masks from ground-truth reference-microphone signals.

    mixture, sources (pair) and noise are Spectrograms aligned on the same
    frame grid; sources and noise are the per-output-channel images at the
    reference microphone. Returns one full-length MaskSet.
    """
    if len(sources) != 2:
        raise ShapeError("expected exactly two source spectrograms")
    mags = [np.abs(s.data[0]) for s in sources]
    noise_mag = np.abs(noise.data[0])
    for m in mags + [noise_mag]:
        if m.shape != (mixture.frame_count, mixture.bins):
            raise ShapeError("source/noise shape does not match the mixture")
    total = mags[0] + mags[1] + noise_mag + EPS
    return MaskSet(
        speech=np.stack([mags[0] / total, mags[1] / total]),
        noise=noise_mag / total,
    )


def normalize_masks(mask_set):
    """Rescale the three masks so they sum to one in every bin.

    All-zero bins get the uniform 1/3 convention.
    """
    total = mask_set.speech[0] + mask_set.speech[1] + mask_set.noise
    degenerate = total < EPS
    safe_total = np.where(degenerate, 1.0, total)
    speech = mask_set.speech / safe_total
    noise = mask_set.noise / safe_total
    speech = np.where(degenerate[np.newaxis], 1.0 / 3.0, speech)
    noise = np.where(degenerate, 1.0 / 3.0, noise)
    return MaskSet(speech=speech, noise=noise)


def steering_vectors(geometry, frequencies, azimuths_deg):
    """Far-field steering vectors, shape (azimuths, frequencies, mics).

    Azimuth 0 deg points along +x; elevation is 0 (planar propagation).
    """
    az = np.deg2rad(np.asarray(azimuths_deg, dtype=np.float64))
    direction = np.stack([np.cos(az), np.sin(az), np.zeros_like(az)], axis=1)  # (A, 3)
    proj = direction @ geometry.positions.T  # (A, J)
    phase = (
        2.0j
        * np.pi
        / SPEED_OF_SOUND
        * np.asarray(frequencies)[np.newaxis, :, np.newaxis]
        * proj[:, np.newaxis, :]
    )
    return np.exp(phase)


_doa_grid_cache = {}  # holds only the latest (positions, band, grid) entry


def _doa_grid(geometry, freqs, grid_deg):
    """Azimuth grid and the conjugated steering vectors (A, Fb, J), scaled to
    unit norm, that estimate_doa matches against.

    Every window of a run asks for the same geometry, band and grid, so the
    latest grid is kept and rebuilt only when one of them changes.
    """
    key = (geometry.positions.tobytes(), freqs.tobytes(), grid_deg)
    if key not in _doa_grid_cache:
        azimuths = np.arange(0.0, 360.0, grid_deg)
        steer = steering_vectors(geometry, freqs, azimuths)
        steer_conj = np.conj(steer / np.sqrt(steer.shape[2]))
        steer_conj.flags.writeable = False
        _doa_grid_cache.clear()
        _doa_grid_cache[key] = (azimuths, steer_conj)
    return _doa_grid_cache[key]


def estimate_doa(masks, spec, geometry, grid_deg=1.0, f_min=300.0, f_max=4000.0):
    """Estimate the azimuth of the source selected by each mask.

    masks: (frames, bins), or a stack (..., frames, bins) of such masks.
    Per frequency bin: mask-weighted spatial covariance, principal
    eigenvector, then matching against a grid of far-field steering vectors;
    match scores are summed over 300-4000 Hz and the argmax azimuth returned
    in [0, 360): a float for one mask, an array of the leading shape for a
    stack.
    """
    masks = np.asarray(masks, dtype=np.float64)
    if masks.shape[-2:] != (spec.frame_count, spec.bins):
        raise ShapeError("mask must be frames x bins aligned with the spectrogram")
    if np.any(np.sum(masks, axis=(-2, -1)) < EPS):
        raise NoSignalError("all-zero mask carries no direction information")
    freqs = spec.bin_frequencies()
    band = (freqs >= f_min) & (freqs <= f_max)
    cov = sig_cov(spec.data[:, :, band], masks[..., band])  # (..., Fb, J, J)
    _, vecs = np.linalg.eigh(cov)
    principal = vecs[..., -1]  # (..., Fb, J)
    azimuths, steer_conj = _doa_grid(geometry, freqs[band], grid_deg)
    scores = np.abs(np.einsum("afj,...fj->...af", steer_conj, principal)) ** 2
    doa = azimuths[np.argmax(scores.sum(axis=-1), axis=-1)]
    return float(doa) if doa.ndim == 0 else doa


def circular_difference_deg(a, b):
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def merge_heads_if_same_doa(mask_set, spec, geometry, threshold_deg=15.0):
    """Merge the two speech heads when their DOA estimates nearly coincide.

    If the circular DOA difference is strictly below the threshold the head
    with the larger total mask mass absorbs the elementwise sum (clipped to 1)
    and the other head is zeroed. A head with no mass is left unmerged.
    """
    masses = [float(np.sum(mask_set.speech[i])) for i in range(2)]
    if min(masses) < EPS:
        return mask_set
    doas = estimate_doa(mask_set.speech, spec, geometry)
    if circular_difference_deg(doas[0], doas[1]) >= threshold_deg:
        return mask_set
    dominant = 0 if masses[0] >= masses[1] else 1
    merged = np.clip(mask_set.speech[0] + mask_set.speech[1], 0.0, 1.0)
    speech = np.zeros_like(mask_set.speech)
    speech[dominant] = merged
    return MaskSet(speech=speech, noise=mask_set.noise.copy())


class OracleMaskProvider:
    """Serves ideal-ratio-mask windows from ground-truth spectrograms."""

    def __init__(self, mixture, sources, noise):
        self._full = oracle_masks(mixture, sources, noise)

    def mask_for_window(self, window_index, start, end):
        return MaskSet(
            speech=self._full.speech[:, start:end].copy(),
            noise=self._full.noise[start:end].copy(),
        )


class FileMaskProvider:
    """Serves precomputed mask windows from a mask container file, reading
    one window per call.

    window_count, window_frames, bins and hop_frames describe the container;
    the caller checks them against the pipeline before asking for windows.
    """

    def __init__(self, path):
        self._windows = MaskFile(path)
        self.window_count = len(self._windows)
        self.hop_frames = self._windows.hop_frames
        self.window_frames, self.bins = self._windows.window_frames, self._windows.bins

    def mask_for_window(self, window_index, start, end):
        return self._windows[window_index]


class ChannelSwappingProvider:
    """Wraps a provider, randomly swapping the speech heads per window.

    Exercises the stitcher's permutation alignment; deterministic per seed.
    """

    def __init__(self, inner, seed=0):
        self._inner = inner
        self._rng = np.random.default_rng(seed)
        self.swaps = {}

    def mask_for_window(self, window_index, start, end):
        mset = self._inner.mask_for_window(window_index, start, end)
        swap = bool(self._rng.integers(0, 2))
        self.swaps[window_index] = swap
        return mset.permuted((1, 0)) if swap else mset
