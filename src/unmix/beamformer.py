"""Per-window MVDR beamforming with speech-speech-noise interference
factorization and output gain adjustment."""

import numpy as np

from .errors import ContractViolationError, ShapeError

EPS = 1e-10
DIAGONAL_LOADING = 1e-6
EMPTY_TARGET_TOL = 1e-12


def sig_cov(window_data, masks):
    """Spatial covariances of the masked signal, one per mask.

    window_data: (J, frames, bins) complex; masks: (..., frames, bins) in
    [0, 1], e.g. a stack of H heads. Returns (..., bins, J, J). Per head and
    frequency: Phi_f = sum_t (m x)(m x)^H / max(sum_t m^2, eps), i.e. the mask
    is applied to the signal before the outer product. An empty mask yields
    zero matrices.
    """
    masks = np.asarray(masks, dtype=np.float64)
    if masks.shape[-2:] != window_data.shape[1:]:
        raise ShapeError("masks must align with window frames x bins")
    m = np.swapaxes(masks, -1, -2)[..., np.newaxis, :]  # (..., F, 1, T)
    mx = m * np.transpose(window_data, (2, 0, 1))  # (..., F, J, T)
    num = mx @ np.conj(np.swapaxes(mx, -1, -2))  # (..., F, J, J)
    denom = np.maximum(np.sum(masks**2, axis=-2), EPS)  # (..., F)
    return num / denom[..., np.newaxis, np.newaxis]


def principal_component(cov):
    """Rank-1 reduction of covariances (bins, J, J): lambda_max v v^H per
    frequency.

    Used to denoise the target covariance before the MVDR solve: the masked
    estimate of a (near) point source is rank-1 plus estimation noise, and
    keeping only the principal eigenpair removes most of that noise.
    """
    _require_hermitian(cov, "target")
    vals, vecs = np.linalg.eigh(cov)
    scaled = vecs[:, :, -1] * np.sqrt(np.maximum(vals[:, -1:], 0.0))
    return scaled[:, :, np.newaxis] * np.conj(scaled[:, np.newaxis, :])


def _require_hermitian(matrices, name):
    scale = max(float(np.max(np.abs(matrices), initial=0.0)), 1.0)
    err = float(np.max(np.abs(matrices - np.conj(np.swapaxes(matrices, -1, -2)))))
    if err > 1e-8 * scale:
        raise ContractViolationError(f"{name} covariance is not Hermitian (err {err:g})")


def mvdr_weights(target, interference, reference_index, loading=DIAGONAL_LOADING):
    """Minimum-variance distortionless-response weights per frequency.

    target (Phi) and interference (Psi): (bins, J, J) Hermitian. Returns
    (bins, J) weights w_f = (Psi_f^-1 Phi_f e) / tr(Psi_f^-1 Phi_f) with e
    selecting the reference channel; Psi is diagonally loaded by
    `loading` * tr/J for invertibility. Frequencies whose trace normalizer is
    below the empty-target tolerance get zero weights.
    """
    phi, psi = np.asarray(target), np.asarray(interference)
    if phi.shape != psi.shape:
        raise ShapeError("target and interference covariance shapes differ")
    if psi.ndim != 3 or psi.shape[1] != psi.shape[2]:
        raise ShapeError("covariance matrices must be (bins, J, J)")
    _require_hermitian(phi, "target")
    _require_hermitian(psi, "interference")
    bins_, j, _ = psi.shape
    trace_psi = np.real(np.trace(psi, axis1=1, axis2=2))
    load = loading * np.maximum(trace_psi, EPS) / j
    psi_loaded = psi + load[:, np.newaxis, np.newaxis] * np.eye(j)
    z = np.linalg.solve(psi_loaded, phi)  # (F, J, J) = Psi^-1 Phi
    numerator = z[:, :, reference_index]
    denominator = np.trace(z, axis1=1, axis2=2)
    weights = np.zeros((bins_, j), dtype=np.complex128)
    active = np.abs(denominator) >= EMPTY_TARGET_TOL
    weights[active] = numerator[active] / denominator[active, np.newaxis]
    return weights


def apply_weights(weights, window_data):
    """y[t, f] = w_f^H x[:, t, f] for weights (bins, J)."""
    return np.einsum("fj,jtf->tf", np.conj(weights), window_data)


def gain_adjust(beamformed, mask, ref_mag):
    """Cap the output magnitude by the masked reference magnitude.

    Per bin: y <- y * min(1, (m |x_R| + eps) / (|y| + eps)). Never increases
    magnitude and never alters phase; suppresses beamformer leakage in bins
    the mask marks as silent.
    """
    mask = np.asarray(mask, dtype=np.float64)
    ref_mag = np.asarray(ref_mag, dtype=np.float64)
    if beamformed.shape != mask.shape or mask.shape != ref_mag.shape:
        raise ShapeError("beamformed output, mask and reference must align")
    cap = (mask * ref_mag + EPS) / (np.abs(beamformed) + EPS)
    return beamformed * np.minimum(1.0, cap)


def beamform_window(window_data, mask_set, reference_index, interference_mode="ssn"):
    """Beamform one window into two output channels.

    window_data: (J, frames, bins) complex slice of the mixture.
    interference_mode "ssn" uses Psi_i = Phi_other + Phi_noise; mode
    "complement" uses the covariance under the 1 - m_i mask (ablation
    baseline). Returns (2, frames, bins) complex.
    """
    speech = mask_set.speech
    if interference_mode == "ssn":
        phi = sig_cov(window_data, np.concatenate([speech, mask_set.noise[np.newaxis]]))
        psis = phi[[1, 0]] + phi[2]
    elif interference_mode == "complement":
        phi = sig_cov(window_data, np.concatenate([speech, 1.0 - speech]))
        psis = phi[2:]
    else:
        raise ValueError(f"unknown interference_mode {interference_mode!r}")
    ref_mag = np.abs(window_data[reference_index])
    out = np.empty((2,) + window_data.shape[1:], dtype=np.complex128)
    for i in range(2):
        w = mvdr_weights(principal_component(phi[i]), psis[i], reference_index)
        y = apply_weights(w, window_data)
        out[i] = gain_adjust(y, speech[i], ref_mag)
    return out
