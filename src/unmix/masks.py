"""Mask providers plus post-processing: sum-to-one normalization and
direction-of-arrival based merging of duplicate speech heads."""

from dataclasses import dataclass

import numpy as np

from .beamformer import EPS, principal_pair, sig_cov
from .errors import NoSignalError, ShapeError
from .pit import permute_heads
from .signal_io import SPEED_OF_SOUND, MaskFile
from .stft import FrameSource

DOA_GRID_DEG = 1.0  # azimuth step of the steering-vector grid
DOA_BAND_HZ = (300.0, 4000.0)  # the speech band whose bins vote on a DOA
DOA_MERGE_THRESHOLD_DEG = 15.0  # heads whose DOAs differ by less are merged


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


_doa_grid_cache = {}  # holds only the latest (positions, frequencies) entry


def doa_grid(geometry, freqs):
    """What DOA estimation matches against, for bin frequencies freqs (Hz):
    the mask of the bins in DOA_BAND_HZ, the azimuth grid of the full
    circle, every DOA_GRID_DEG, and the conjugated steering vectors of those
    bins for the azimuths in [0, 180) alone, scaled to unit norm and laid
    out contiguously as (Fb, A / 2, J). Those of the other half are not
    held: a plane wave from azimuth + 180 has the negated delays, so its
    steering vectors are the complex conjugates.

    Every window of a run asks for the same geometry and frequencies, so the
    latest grid is kept and rebuilt only when one of them changes. Windows
    on other threads may build it at the same time: each returns the grid it
    found or built.
    """
    key = (geometry.positions.tobytes(), freqs.tobytes())
    grid = _doa_grid_cache.get(key)
    if grid is None:
        band = (freqs >= DOA_BAND_HZ[0]) & (freqs <= DOA_BAND_HZ[1])
        azimuths = np.arange(0.0, 360.0, DOA_GRID_DEG)
        half = len(azimuths) // 2
        if half * DOA_GRID_DEG != 180.0:
            raise ValueError(f"DOA_GRID_DEG = {DOA_GRID_DEG} does not divide 180")
        steer = steering_vectors(geometry, freqs[band], azimuths[:half])
        steer /= np.sqrt(steer.shape[2])  # in place: the layout change below copies
        np.conj(steer, out=steer)
        steer_conj = np.ascontiguousarray(np.swapaxes(steer, 0, 1))
        band.flags.writeable = steer_conj.flags.writeable = False
        grid = (band, azimuths, steer_conj)
        _doa_grid_cache.clear()
        _doa_grid_cache[key] = grid
    return grid


def doa_from_eigenvectors(vector, freqs, geometry):
    """Azimuth in [0, 360) of the source whose spatial covariances have the
    principal eigenvectors `vector` (..., bins, J), as principal_pair
    returns them; freqs: (bins,) in Hz.

    Per frequency bin in DOA_BAND_HZ, the principal eigenvector v is matched
    against far-field steering vectors every DOA_GRID_DEG degrees; match
    scores are summed over the band and the argmax azimuth returned (the
    lowest of equal scores): a float for one source, an array of the
    leading shape for a stack. v and conj(v) are matched against doa_grid's
    half circle in one matmul: |s(a + 180)^H v| = |s(a)^H conj(v)|, so the
    conj(v) scores are those of [180, 360).
    """
    band, azimuths, steer_conj = doa_grid(geometry, freqs)
    in_band = vector[..., band, :]
    match = steer_conj @ np.stack([in_band, np.conj(in_band)], axis=-1)  # (..., Fb, A / 2, 2)
    scores = (np.abs(match) ** 2).sum(axis=-3)
    doa = azimuths[np.argmax(np.concatenate([scores[..., 0], scores[..., 1]], axis=-1), axis=-1)]
    return float(doa) if doa.ndim == 0 else doa


def estimate_doa(masks, spec, geometry):
    """Estimate the azimuth of the source selected by each mask.

    masks: (frames, bins), or a stack (..., frames, bins) of such masks.
    The principal eigenvectors of the mask-weighted spatial covariances are
    matched by doa_from_eigenvectors: a float for one mask, an array of the
    leading shape for a stack. Only the bins that vote, those of doa_grid's
    band, have their covariances and eigenvectors computed.
    """
    masks = np.asarray(masks, dtype=np.float64)
    if masks.shape[-2:] != (spec.frame_count, spec.bins):
        raise ShapeError("mask must be frames x bins aligned with the spectrogram")
    if np.any(np.sum(masks, axis=(-2, -1)) < EPS):
        raise NoSignalError("all-zero mask carries no direction information")
    freqs = spec.bin_frequencies()
    band = doa_grid(geometry, freqs)[0]
    _, in_band = principal_pair(sig_cov(spec.data[:, :, band], masks[..., band]))
    vector = np.zeros(masks.shape[:-2] + (spec.bins, spec.channel_count), np.complex128)
    vector[..., band, :] = in_band
    return doa_from_eigenvectors(vector, freqs, geometry)


def circular_difference_deg(a, b):
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def merge_heads_if_same_doa(
    mask_set, spec, geometry, threshold_deg=DOA_MERGE_THRESHOLD_DEG, covariances=None
):
    """Merge the two speech heads when their DOA estimates nearly coincide.

    The DOAs come from covariances, the window_covariances of mask_set over
    the window, or without them from estimate_doa on the speech heads over
    spec, the window's Spectrogram. With covariances, spec is read only for
    its bin_frequencies(), which any frame source on the window's grid has.
    If the circular DOA difference is strictly below the threshold the head
    with the larger total mask mass absorbs the elementwise sum (clipped to 1)
    and the other head is zeroed, sharing mask_set's noise array; mask_set
    itself is returned when nothing merges. A head with no mass is unmerged.
    """
    masses = [float(np.sum(mask_set.speech[i])) for i in range(2)]
    if min(masses) < EPS:
        return mask_set
    if covariances is None:
        doas = estimate_doa(mask_set.speech, spec, geometry)
    else:
        doas = doa_from_eigenvectors(covariances.vector, spec.bin_frequencies(), geometry)
    if circular_difference_deg(doas[0], doas[1]) >= threshold_deg:
        return mask_set
    dominant = 0 if masses[0] >= masses[1] else 1
    merged = np.clip(mask_set.speech[0] + mask_set.speech[1], 0.0, 1.0)
    speech = np.zeros_like(mask_set.speech)
    speech[dominant] = merged
    return MaskSet(speech=speech, noise=mask_set.noise)


class OracleMaskProvider:
    """Serves ideal ratio masks from ground-truth reference-microphone frames.

    mixture, sources (pair) and noise are Spectrograms or StftFrames on the
    same frame grid; sources and noise are the per-output-stream images at
    the reference microphone. Each frame's masks are computed from that
    frame alone, once: the masks of the frames a window shares with the
    previous one are carried over, so windows are asked for in order. Window
    0 starts a pass over the windows anew, which Spectrograms serve again.
    """

    def __init__(self, mixture, sources, noise):
        if len(sources) != 2:
            raise ShapeError("expected exactly two source spectrograms")
        for s in [*sources, noise]:
            if (s.frame_count, s.bins) != (mixture.frame_count, mixture.bins):
                raise ShapeError("source/noise shape does not match the mixture")
        self._truth = (*sources, noise)
        self._masks = _RatioMasks(self._truth)

    def mask_for_window(self, window_index, start, end):
        if window_index == 0:
            self._masks = _RatioMasks(self._truth)
        masks = self._masks.frames(start, end)
        return MaskSet(speech=masks[:2], noise=masks[2])


class _RatioMasks(FrameSource):
    """The ideal ratio masks of three one-channel frame sources (speech 0,
    speech 1, noise), as the three channels of a frame source: each frame's
    masks come from that frame of the three alone."""

    dtype = np.float64

    def __init__(self, truth):
        super().__init__(truth[0], truth[0].config, truth[0].frame_count)
        self.channel_count, self._source = len(truth), truth

    def _next(self, lo, end):
        mags = [np.abs(s.frames(lo, end)[0]) for s in self._source]
        total = mags[0] + mags[1] + mags[2] + EPS
        return np.stack([mag / total for mag in mags])


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
