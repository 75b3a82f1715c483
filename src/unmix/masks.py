"""Mask providers plus post-processing: sum-to-one normalization and
direction-of-arrival based merging of duplicate speech heads."""

from dataclasses import dataclass

import numpy as np

from .beamformer import sig_cov, window_covariances
from .errors import NoSignalError, ShapeError
from .pit import permute_heads
from .signal_io import SPEED_OF_SOUND, MaskFile

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
        """Return a MaskSet with the speech heads in `permutation` order: a
        view of this one's speech and this one's noise array, not copies."""
        return MaskSet(speech=permute_heads(self.speech, permutation), noise=self.noise)


def oracle_masks(mixture, sources, noise):
    """Ideal ratio masks of all frames: OracleMaskProvider over the whole
    range. Returns one full-length MaskSet."""
    return OracleMaskProvider(mixture, sources, noise).mask_for_window(
        0, 0, mixture.frame_count
    )


def normalize_masks(mask_set):
    """Rescale the three masks so they sum to one in every bin.

    All-zero bins get the uniform 1/3 convention.
    """
    total = mask_set.speech[0] + mask_set.speech[1] + mask_set.noise
    degenerate = total < EPS
    total[degenerate] = 1.0
    speech = mask_set.speech / total
    noise = mask_set.noise / total
    speech[:, degenerate] = 1.0 / 3.0
    noise[degenerate] = 1.0 / 3.0
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
    return np.exp(phase, out=phase)


_doa_grid_cache = {}  # holds only the latest (positions, band, grid) entry


def _doa_grid(geometry, freqs, grid_deg):
    """Azimuth grid and the conjugated steering vectors, scaled to unit norm
    and laid out contiguously as (Fb, A, J), that DOA estimation matches
    against.

    Every window of a run asks for the same geometry, band and grid, so the
    latest grid is kept and rebuilt only when one of them changes. Windows
    on other threads may build it at the same time: each returns the grid
    it found or built.
    """
    key = (geometry.positions.tobytes(), freqs.tobytes(), grid_deg)
    grid = _doa_grid_cache.get(key)
    if grid is None:
        azimuths = np.arange(0.0, 360.0, grid_deg)
        steer = steering_vectors(geometry, freqs, azimuths)
        steer /= np.sqrt(steer.shape[2])  # in place: the layout change below copies
        np.conj(steer, out=steer)
        steer_conj = np.ascontiguousarray(np.swapaxes(steer, 0, 1))
        steer_conj.flags.writeable = False
        grid = (azimuths, steer_conj)
        _doa_grid_cache.clear()
        _doa_grid_cache[key] = grid
    return grid


def doa_from_eigenvectors(vectors, freqs, geometry, grid_deg=1.0, f_min=300.0, f_max=4000.0):
    """Azimuth in [0, 360) of the source whose spatial covariances have the
    eigenvectors `vectors` (..., bins, J, J), eigenvalues ascending as
    np.linalg.eigh returns them; freqs: (bins,) in Hz.

    Per frequency bin in [f_min, f_max], the principal eigenvector is matched
    against a grid of far-field steering vectors; match scores are summed
    over the band and the argmax azimuth returned: a float for one source, an
    array of the leading shape for a stack.
    """
    band = (freqs >= f_min) & (freqs <= f_max)
    azimuths, steer_conj = _doa_grid(geometry, freqs[band], grid_deg)
    principal = vectors[..., -1][..., band, :]  # (..., Fb, J)
    match = steer_conj @ principal[..., np.newaxis]  # (..., Fb, A, 1)
    scores = np.abs(match[..., 0]) ** 2
    doa = azimuths[np.argmax(scores.sum(axis=-2), axis=-1)]
    return float(doa) if doa.ndim == 0 else doa


def estimate_doa(masks, spec, geometry, grid_deg=1.0, f_min=300.0, f_max=4000.0):
    """Estimate the azimuth of the source selected by each mask.

    masks: (frames, bins), or a stack (..., frames, bins) of such masks.
    The mask-weighted spatial covariances of the bins in [f_min, f_max] are
    eigendecomposed and matched by doa_from_eigenvectors: a float for one
    mask, an array of the leading shape for a stack.
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
    return doa_from_eigenvectors(vecs, freqs[band], geometry, grid_deg, f_min, f_max)


def circular_difference_deg(a, b):
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def merge_heads_if_same_doa(mask_set, spec, geometry, threshold_deg=15.0, covariances=None):
    """Merge the two speech heads when their DOA estimates nearly coincide.

    The DOAs come from the speech-head eigenvectors of covariances, the
    window_covariances of mask_set over spec (computed here when not given).
    If the circular DOA difference is strictly below the threshold the head
    with the larger total mask mass absorbs the elementwise sum (clipped to 1)
    and the other head is zeroed; mask_set itself is returned when nothing
    merges. A head with no mass is left unmerged.
    """
    masses = [float(np.sum(mask_set.speech[i])) for i in range(2)]
    if min(masses) < EPS:
        return mask_set
    if covariances is None:
        covariances = window_covariances(spec.data, mask_set)
    doas = doa_from_eigenvectors(covariances.vectors, spec.bin_frequencies(), geometry)
    if circular_difference_deg(doas[0], doas[1]) >= threshold_deg:
        return mask_set
    dominant = 0 if masses[0] >= masses[1] else 1
    merged = np.clip(mask_set.speech[0] + mask_set.speech[1], 0.0, 1.0)
    speech = np.zeros_like(mask_set.speech)
    speech[dominant] = merged
    return MaskSet(speech=speech, noise=mask_set.noise.copy())


class OracleMaskProvider:
    """Serves ideal ratio masks from ground-truth reference-microphone frames.

    mixture, sources (pair) and noise are Spectrograms or StftFrames on the
    same frame grid; sources and noise are the per-output-stream images at
    the reference microphone. Each window's masks are computed from that
    window's frames alone, so windows are asked for in order.
    """

    def __init__(self, mixture, sources, noise):
        if len(sources) != 2:
            raise ShapeError("expected exactly two source spectrograms")
        for s in [*sources, noise]:
            if (s.frame_count, s.bins) != (mixture.frame_count, mixture.bins):
                raise ShapeError("source/noise shape does not match the mixture")
        self._sources, self._noise = sources, noise

    def mask_for_window(self, window_index, start, end):
        mags = [np.abs(s.frames(start, end)[0]) for s in self._sources]
        noise_mag = np.abs(self._noise.frames(start, end)[0])
        total = mags[0] + mags[1] + noise_mag + EPS
        return MaskSet(
            speech=np.stack([mags[0] / total, mags[1] / total]),
            noise=noise_mag / total,
        )


class FileMaskProvider(MaskFile):
    """A mask container that serves its window c, read from the file, as
    the masks of the pipeline's window c. The caller checks the container's
    geometry against the pipeline before asking for windows."""

    def mask_for_window(self, window_index, start, end):
        return self[window_index]


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
