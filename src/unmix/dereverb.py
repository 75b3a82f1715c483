"""STFT-domain multichannel linear-prediction dereverberation (weighted
prediction error), applied ahead of separation."""

import functools
import queue
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import ConfigurationError, InsufficientInputError
from .stft import FrameSource, Spectrogram


@dataclass
class WpeConfig:
    """WPE parameters. `taps`, `delay` and `iterations` are those of each
    wpe_block; `update_interval` and `context` set the blocks of WpeFrames:
    the first `context` seconds are solved as one block, and after them the
    filters are re-estimated once per `update_interval` on the trailing
    `context` seconds."""

    taps: int = 10
    delay: int = 2
    iterations: int = 3
    update_interval: float = 1.0  # seconds between filter re-estimations
    context: float = 4.0  # seconds of the first block and of each later solve
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.taps < 1 or self.delay < 1 or self.iterations < 1:
            raise ValueError("taps, delay and iterations must all be >= 1")
        for name in ("update_interval", "context", "epsilon"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


def _delayed_stack(data, taps, delay, out=None):
    """Stack delayed frames: (F, J, T) -> (F, J*taps, T), written to
    out[:F] when out is given."""
    f, j, t = data.shape
    if out is None:
        stacked = np.zeros((f, j * taps, t), dtype=data.dtype)
    else:
        stacked = out[:f]
        stacked[...] = 0
    for k in range(taps):
        d = delay + k
        if d >= t:
            break
        stacked[:, k * j : (k + 1) * j, d:] = data[:, :, : t - d]
    return stacked


def _wpe_filters(data, stacked, estimate, config, out=None):
    """One half-iteration: variance update then normal-equation solve.

    Everything is laid out (F, rows, T), so both correlations are one batched
    matmul over frequency that contracts the frame axis, e.g.
    R = (stacked / lambda) @ stacked^H with stacked^H of shape (F, T, JK).

    Returns (filters (F, JK, J), lambda (F, T), per-frequency ridge load (F,),
    |estimate|^2 (F, J, T)). The (F, JK, T) temporary is written to out[:F]
    when out is given.
    """
    eps = config.epsilon
    power = np.abs(estimate) ** 2
    lam = np.maximum(np.mean(power, axis=1), eps)  # (F, T)
    # conj(stacked) / lambda is the only (F, JK, T) temporary: R and P are the
    # conjugates of its products with the plain transposed views. Multiplying
    # by 1 / lambda gives the division's bits: numpy divides a complex number
    # by a real one as a product with its reciprocal.
    weighted = np.conj(stacked, out=None if out is None else out[: len(stacked)])
    weighted *= (1.0 / lam)[:, np.newaxis]
    r = weighted @ stacked.transpose(0, 2, 1)  # (F, JK, JK)
    np.conj(r, out=r)
    p = np.conj(weighted @ data.transpose(0, 2, 1))  # (F, JK, J)
    jk = r.shape[1]
    load = eps * np.maximum(np.real(np.trace(r, axis1=1, axis2=2)) / jk, eps)  # (F,)
    diagonal = np.arange(jk)
    r[:, diagonal, diagonal] += load[:, np.newaxis]
    filters = np.linalg.solve(r, p)
    return filters, lam, load, power


_CHUNK_BINS = 4  # bins whose iterations one worker of wpe_block runs together


def _wpe_bins(data, config, residuals, workspace):
    """The iterations of wpe_block on the (F, J, T) data of some bins.

    Returns the estimate (F, J, T). When residuals is an (iterations, 2)
    array, each iteration adds the (pre, post) objective of these bins to
    its row. workspace is a (2, >= F, JK, T) array that holds the two
    largest temporaries.
    """
    stacked = _delayed_stack(data, config.taps, config.delay, workspace[0])
    estimate = data
    prev_filters = None
    for i in range(config.iterations):
        filters, lam, load, power = _wpe_filters(
            data, stacked, estimate, config, workspace[1]
        )
        prediction = np.conj(filters).transpose(0, 2, 1) @ stacked  # (F, J, T)
        estimate = data - prediction
        if residuals is not None:
            weight = load[:, np.newaxis, np.newaxis]
            pre = np.sum(power / lam[:, np.newaxis])
            if prev_filters is not None:
                pre += np.sum(weight * np.abs(prev_filters) ** 2)
            post = np.sum(np.abs(estimate) ** 2 / lam[:, np.newaxis])
            residuals[i] += pre, post + np.sum(weight * np.abs(filters) ** 2)
        prev_filters = filters
    return estimate


def wpe_block(spec, config=None, collect_residuals=None):
    """Dereverberate one block with the iterative WPE algorithm.

    Per frequency, each iteration estimates the per-frame variance from the
    current dereverberated signal, solves regularized normal equations for
    multichannel prediction filters over delayed frames, and subtracts the
    prediction. Output has the same shape as the input (MIMO). Every
    quantity is per bin, so the iterations run on bands of _CHUNK_BINS bins,
    which bounds the temporaries without changing the output. The bands are
    jobs of parallel.ordered, all queued at once, so they run on every CPU
    the process may use; each band is solved on one thread, so the output
    does not depend on the number of CPUs. Their residuals are summed in
    band order.

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
    out = np.empty_like(spec.data)
    # Allocated here, where freed memory is at hand: glibc serves each helper
    # thread from a heap of its own, which would add its temporaries to the peak.
    workspaces = queue.SimpleQueue()
    bands = range(0, spec.bins, _CHUNK_BINS)
    shape = (2, min(_CHUNK_BINS, spec.bins), spec.channel_count * config.taps, spec.frame_count)
    for _ in range(min(parallel.job_threads(), len(bands))):
        workspaces.put(np.empty(shape, spec.data.dtype))

    def run_band(lo):
        chunk = slice(lo, lo + _CHUNK_BINS)
        data = np.ascontiguousarray(np.transpose(spec.data[:, :, chunk], (2, 0, 1)))
        residuals = None if collect_residuals is None else np.zeros((config.iterations, 2))
        workspace = workspaces.get()
        try:
            estimate = _wpe_bins(data, config, residuals, workspace)
        finally:
            workspaces.put(workspace)
        out[:, :, chunk] = np.transpose(estimate, (1, 2, 0))
        return residuals

    jobs = (functools.partial(run_band, lo) for lo in bands)
    residuals = sum(r for r in parallel.ordered(jobs, ahead=len(bands)) if r is not None)
    if collect_residuals is not None:
        collect_residuals.extend((float(pre), float(post)) for pre, post in residuals)
    return Spectrogram(data=out, config=spec.config, sample_rate=spec.sample_rate)


class WpeFrames(FrameSource):
    """WPE-dereverberated frames of a frame source, one range at a time.

    source: a StftFrames or a Spectrogram, whose StftConfig is `config`;
    config: a WpeConfig, kept as `wpe`. Each block of frames is the tail of
    one wpe_block. The first block is the first `context` seconds (or the
    whole recording, if shorter), solved as a whole, so no frame is served
    before that much of the source has been read. After it comes one block
    per update interval, solved on the `context` seconds that end where it
    ends. The source is read forward only.
    """

    def __init__(self, source, config=None):
        super().__init__(source, source.config, source.frame_count)
        self.wpe = config or WpeConfig()
        frame_rate = source.sample_rate / source.config.hop
        self._block = int(round(self.wpe.update_interval * frame_rate))
        if self._block < self.wpe.delay + self.wpe.taps:
            raise ConfigurationError(
                f"wpe_update_interval = {self.wpe.update_interval} s gives blocks of "
                f"{self._block} frames, fewer than wpe_delay + wpe_taps = "
                f"{self.wpe.delay + self.wpe.taps}"
            )
        self._context = max(int(round(self.wpe.context * frame_rate)), self._block)

    def _next(self, lo, end):
        """The frames from lo to the end of lo's block."""
        block_end = self._context
        if lo >= self._context:
            block_end += ((lo - self._context) // self._block + 1) * self._block
        block_end = min(block_end, self.frame_count)
        context_start = max(0, block_end - self._context)
        context = self._source.frames(context_start, block_end)
        out = wpe_block(Spectrogram(context, self.config, self.sample_rate), self.wpe)
        return out.data[:, lo - context_start :]


def wpe_stream(spec, config=None):
    """All WpeFrames of a Spectrogram, as one Spectrogram. A signal no
    longer than one context reduces exactly to wpe_block."""
    return WpeFrames(spec, config).spectrogram()
