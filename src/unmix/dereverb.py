"""STFT-domain multichannel linear-prediction dereverberation (weighted
prediction error), applied ahead of separation."""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientInputError
from .stft import Spectrogram


@dataclass
class WpeConfig:
    taps: int = 10
    delay: int = 2
    iterations: int = 3
    update_interval: float = 1.0  # seconds between filter re-estimations
    context: float = 4.0  # trailing seconds used to estimate each filter
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.taps < 1 or self.delay < 1 or self.iterations < 1:
            raise ValueError("taps, delay and iterations must all be >= 1")


def _delayed_stack(data, taps, delay):
    """Stack delayed frames: (F, J, T) -> (F, J*taps, T)."""
    f, j, t = data.shape
    stacked = np.zeros((f, j * taps, t), dtype=data.dtype)
    for k in range(taps):
        d = delay + k
        if d >= t:
            break
        stacked[:, k * j : (k + 1) * j, d:] = data[:, :, : t - d]
    return stacked


def _wpe_filters(data, stacked, estimate, config):
    """One half-iteration: variance update then normal-equation solve.

    Everything is laid out (F, rows, T), so both correlations are one batched
    matmul over frequency that contracts the frame axis, e.g.
    R = (stacked / lambda) @ stacked^H with stacked^H of shape (F, T, JK).

    Returns (filters (F, JK, J), lambda (F, T), per-frequency ridge load (F,),
    pre-update weighted residual).
    """
    eps = config.epsilon
    lam = np.maximum(np.mean(np.abs(estimate) ** 2, axis=1), eps)  # (F, T)
    residual_pre = float(np.sum(np.abs(estimate) ** 2 / lam[:, np.newaxis]))
    # conj(stacked) / lambda is the only (F, JK, T) temporary: R and P are the
    # conjugates of its products with the plain transposed views.
    weighted = np.conj(stacked)
    weighted /= lam[:, np.newaxis]
    r = np.conj(weighted @ stacked.transpose(0, 2, 1))  # (F, JK, JK)
    p = np.conj(weighted @ data.transpose(0, 2, 1))  # (F, JK, J)
    jk = r.shape[1]
    load = eps * np.maximum(np.real(np.trace(r, axis1=1, axis2=2)) / jk, eps)  # (F,)
    filters = np.linalg.solve(
        r + load[:, np.newaxis, np.newaxis] * np.eye(jk), p
    )
    return filters, lam, load, residual_pre


def wpe_block(spec, config=None, collect_residuals=None, collect_filters=None):
    """Dereverberate one block with the iterative WPE algorithm.

    Per frequency, each iteration estimates the per-frame variance from the
    current dereverberated signal, solves regularized normal equations for
    multichannel prediction filters over delayed frames, and subtracts the
    prediction. Output has the same shape as the input (MIMO).

    When `collect_residuals` is a list, (pre, post) values of the regularized
    objective sum(|d|^2 / lambda) + load * ||G||^2 are appended per iteration.
    The filter solve minimizes exactly this ridge objective under the current
    variances, so within an iteration the post value never exceeds the pre
    value.
    """
    config = config or WpeConfig()
    if spec.frame_count < config.delay + config.taps:
        raise InsufficientInputError(
            f"block of {spec.frame_count} frames is shorter than delay + taps"
        )
    data = np.ascontiguousarray(np.transpose(spec.data, (2, 0, 1)))  # (F, J, T)
    stacked = _delayed_stack(data, config.taps, config.delay)
    estimate = data
    prev_filters = None
    for _ in range(config.iterations):
        filters, lam, load, residual_pre = _wpe_filters(data, stacked, estimate, config)
        prediction = np.conj(filters).transpose(0, 2, 1) @ stacked  # (F, J, T)
        estimate = data - prediction
        if collect_residuals is not None:
            penalty_pre = 0.0
            if prev_filters is not None:
                penalty_pre = float(
                    np.sum(load[:, np.newaxis, np.newaxis] * np.abs(prev_filters) ** 2)
                )
            residual_post = float(np.sum(np.abs(estimate) ** 2 / lam[:, np.newaxis]))
            penalty_post = float(
                np.sum(load[:, np.newaxis, np.newaxis] * np.abs(filters) ** 2)
            )
            collect_residuals.append(
                (residual_pre + penalty_pre, residual_post + penalty_post)
            )
        prev_filters = filters
    if collect_filters is not None:
        collect_filters.append(filters)
    return Spectrogram(
        data=np.transpose(estimate, (1, 2, 0)),
        config=spec.config,
        sample_rate=spec.sample_rate,
    )


def wpe_stream(spec, config=None, collect_filters=None):
    """Blockwise WPE with periodic filter updates.

    Filters are re-estimated once per update interval on a trailing context
    window (config.context seconds, including the current block) and applied
    to that block; the output is the concatenation of the blocks. A signal no
    longer than one block reduces exactly to wpe_block.
    """
    config = config or WpeConfig()
    frame_rate = spec.frame_rate()
    block = max(int(round(config.update_interval * frame_rate)), 1)
    context = max(int(round(config.context * frame_rate)), block)
    total = spec.frame_count
    out = np.empty_like(spec.data)
    for start in range(0, total, block):
        end = min(start + block, total)
        ctx_start = max(0, end - context)
        ctx_spec = Spectrogram(
            data=spec.data[:, ctx_start:end],
            config=spec.config,
            sample_rate=spec.sample_rate,
        )
        processed = wpe_block(ctx_spec, config, collect_filters=collect_filters)
        out[:, start:end] = processed.data[:, start - ctx_start : end - ctx_start]
    return Spectrogram(data=out, config=spec.config, sample_rate=spec.sample_rate)
