"""Per-window MVDR beamforming with speech-speech-noise interference
factorization and output gain adjustment."""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ShapeError

EPS = 1e-10
DIAGONAL_LOADING = 1e-6
EMPTY_TARGET_TOL = 1e-12


_BAND_BINS = 16  # bins whose covariances sig_cov computes together


def sig_cov(window_data, masks):
    """Spatial covariances of the masked signal, one per mask.

    window_data: (J, frames, bins) complex, or the caller's sequence of
    (J, n, bins) pieces whose frames, in order, are the window's
    (FrameSource.pieces); masks: float (..., frames, bins) in [0, 1], e.g. a
    stack of H heads. Returns (..., bins, J, J). Per head and frequency:
    Phi_f = sum_t (m x)(m x)^H / max(sum_t m^2, eps), i.e. the mask is
    applied to the signal before the outer product. Per band of _BAND_BINS
    bins it is one batched matmul (m^2 x) @ x^H on the band's C-order (Fb,
    J, frames) copy, filled piece by piece, whose conjugated side is shared
    by the whole stack; the bands bound the (..., bins, J, frames)
    temporary, and neither they nor the split change the output. An empty
    mask yields zero matrices.
    """
    pieces = (window_data,) if isinstance(window_data, np.ndarray) else window_data
    j, _, bins = pieces[0].shape
    frames = sum(piece.shape[1] for piece in pieces)
    if masks.shape[-2:] != (frames, bins):
        raise ShapeError("masks must align with window frames x bins")
    power = masks**2
    weight = np.swapaxes(power, -1, -2)[..., np.newaxis, :]  # (..., F, 1, T)
    denom = np.maximum(np.sum(power, axis=-2), EPS)[..., np.newaxis, np.newaxis]  # (..., F, 1, 1)
    out = np.empty(masks.shape[:-2] + (bins, j, j), dtype=np.complex128)
    for lo in range(0, bins, _BAND_BINS):
        band = slice(lo, lo + _BAND_BINS)
        x = np.empty((min(_BAND_BINS, bins - lo), j, frames), np.complex128)  # (Fb, J, T)
        t = 0
        for piece in pieces:
            x[:, :, t : t + piece.shape[1]] = np.transpose(piece[:, :, band], (2, 0, 1))
            t += piece.shape[1]
        num = (weight[..., band, :, :] * x) @ np.swapaxes(np.conj(x), -1, -2)  # (..., Fb, J, J)
        out[..., band, :, :] = num / denom[..., band, :, :]
    return out


@dataclass
class WindowCovariances:
    """Masked spatial statistics of one window, in speech-head order.

    psi: (2, bins, J, J) the interference covariance of each head; value
    (2, bins) and vector (2, bins, J): each speech head's principal_pair.
    """

    psi: np.ndarray
    value: np.ndarray
    vector: np.ndarray


def window_covariances(window_data, mask_set, interference_mode="ssn"):
    """The covariance stack of one window and the principal eigenpairs of its
    speech heads, computed once and shared by the DOA merge and the MVDR.

    interference_mode "ssn" builds [speech 0, speech 1, noise] and uses
    Psi_i = Phi_other + Phi_noise; mode "complement" builds [speech, 1 -
    speech] and uses the covariance under the 1 - m_i mask (ablation
    baseline).
    """
    speech = mask_set.speech
    if interference_mode == "ssn":
        cov = sig_cov(window_data, np.concatenate([speech, mask_set.noise[np.newaxis]]))
        psi = cov[[1, 0]] + cov[2]
    elif interference_mode == "complement":
        cov = sig_cov(window_data, np.concatenate([speech, 1.0 - speech]))
        psi = cov[2:]
    else:
        raise ValueError(f"unknown interference_mode {interference_mode!r}")
    return WindowCovariances(psi, *principal_pair(cov[:2]))


def principal_pair(cov):
    """The largest eigenvalue (..., bins) and its unit eigenvector (..., bins,
    J) of Hermitian speech covariances (..., bins, J, J): views of the last
    column of np.linalg.eigh, whose eigenvalues ascend."""
    _require_hermitian(cov, "speech")
    values, vectors = np.linalg.eigh(cov)
    return values[..., -1], vectors[..., -1]


def principal_component(value, vector):
    """Rank-1 covariances lambda v v^H (..., bins, J, J) of a principal_pair.

    Used to denoise the target covariance before the MVDR solve: the masked
    estimate of a (near) point source is rank-1 plus estimation noise, and
    keeping only the principal eigenpair removes most of that noise.
    """
    scaled = vector * np.sqrt(np.maximum(value, 0.0))[..., np.newaxis]
    return scaled[..., :, np.newaxis] * np.conj(scaled[..., np.newaxis, :])


def _require_hermitian(matrices, name):
    scale = max(float(np.max(np.abs(matrices), initial=0.0)), 1.0)
    err = float(np.max(np.abs(matrices - np.conj(np.swapaxes(matrices, -1, -2)))))
    if err > 1e-8 * scale:
        raise ContractViolationError(f"{name} covariance is not Hermitian (err {err:g})")


def mvdr_weights(target, interference, reference_index):
    """Minimum-variance distortionless-response weights per frequency.

    target (Phi) and interference (Psi): (..., bins, J, J) Hermitian. Returns
    (..., bins, J) weights w_f = (Psi_f^-1 Phi_f e) / tr(Psi_f^-1 Phi_f) with
    e selecting the reference channel (Souden et al., IEEE TASLP 2010); Psi
    is diagonally loaded by DIAGONAL_LOADING * tr/J for invertibility. Bins
    whose trace normalizer is below EMPTY_TARGET_TOL get zero weights.
    """
    phi, psi = np.asarray(target), np.asarray(interference)
    if phi.shape != psi.shape:
        raise ShapeError("target and interference covariance shapes differ")
    if psi.ndim < 3 or psi.shape[-1] != psi.shape[-2]:
        raise ShapeError("covariance matrices must be (..., bins, J, J)")
    _require_hermitian(phi, "target")
    _require_hermitian(psi, "interference")
    j = psi.shape[-1]
    trace_psi = np.real(np.trace(psi, axis1=-2, axis2=-1))
    load = DIAGONAL_LOADING * np.maximum(trace_psi, EPS) / j
    psi_loaded = psi + load[..., np.newaxis, np.newaxis] * np.eye(j)
    z = np.linalg.solve(psi_loaded, phi)  # (..., F, J, J) = Psi^-1 Phi
    numerator = z[..., :, reference_index]
    denominator = np.trace(z, axis1=-2, axis2=-1)
    weights = np.zeros(psi.shape[:-1], dtype=np.complex128)
    active = np.abs(denominator) >= EMPTY_TARGET_TOL
    weights[active] = numerator[active] / denominator[active][:, np.newaxis]
    return weights


def apply_weights(weights, window_data):
    """y[..., t, f] = w_f^H x[:, t, f] for weights (..., bins, J), shaped (...,
    frames, bins): one batched (1, J) @ (J, frames) matmul per bin."""
    y = np.conj(weights)[..., :, np.newaxis, :] @ np.transpose(window_data, (2, 0, 1))
    return np.swapaxes(y[..., 0, :], -1, -2)


def gain_adjust(beamformed, mask, ref_mag):
    """Cap the output magnitude by the masked reference magnitude.

    Per bin of beamformed, mask (..., frames, bins) and ref_mag (frames, bins):
    y <- y * min(1, (m |x_R| + eps) / (|y| + eps)). Never increases magnitude
    and never alters phase; suppresses leakage in bins the mask marks silent.
    """
    if beamformed.shape != mask.shape or mask.shape[-2:] != ref_mag.shape:
        raise ShapeError("beamformed output, mask and reference must align")
    cap = (mask * ref_mag + EPS) / (np.abs(beamformed) + EPS)
    return beamformed * np.minimum(1.0, cap, out=cap)


def beamform_window(data, mask_set, reference_index, covariances, frames=slice(None)):
    """Beamform one window's two speech heads, as one stack, into two outputs.

    data: (J, n, bins) complex, the mixture in the window's `frames`, a
    slice of the window (by default all of it); covariances: the
    window_covariances of mask_set over the whole window. The weights come
    from the whole window and are applied to data, capped by the masks of
    `frames`. Returns (2, n, bins) complex.
    """
    target = principal_component(covariances.value, covariances.vector)
    weights = mvdr_weights(target, covariances.psi, reference_index)
    beamformed = apply_weights(weights, data)
    return gain_adjust(beamformed, mask_set.speech[:, frames], np.abs(data[reference_index]))
