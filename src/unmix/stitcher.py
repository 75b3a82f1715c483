"""Sliding-window engine: window planning, cross-window permutation
alignment, and the end-to-end masking/beamforming pipeline."""

import functools
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import parallel
from .beamformer import beamform_window, window_covariances
from .errors import InsufficientInputError, ShapeError
from .masks import merge_heads_if_same_doa, normalize_masks
from .pit import PERMUTATIONS
from .stft import Spectrogram


@dataclass
class WindowPlan:
    """Sliding-window geometry in STFT frames.

    Defaults give a 2.4 s window with ~75% overlap at a 16 ms frame hop.
    """

    window_frames: int = 150
    hop_frames: int = 38

    def __post_init__(self):
        if not 0 < self.hop_frames < self.window_frames:
            raise ValueError("need 0 < hop_frames < window_frames: windows overlap")


@dataclass
class StitchState:
    """Running permutation alignment across windows."""

    permutation: tuple = (0, 1)  # applied to the latest window's provider heads
    previous_masked_mags: np.ndarray = None  # (2, window_frames, bins)
    previous_range: tuple = None


def plan_windows(total_frames, plan):
    """Frame ranges of the sliding windows covering [0, total_frames).

    Windows advance by hop_frames; the final window is right-aligned so the
    tail is covered without gaps.
    """
    if total_frames < plan.window_frames:
        raise InsufficientInputError(
            f"{total_frames} frames is shorter than one {plan.window_frames}-frame window"
        )
    windows = []
    start = 0
    while True:
        end = start + plan.window_frames
        if end >= total_frames:
            windows.append((total_frames - plan.window_frames, total_frames))
            break
        windows.append((start, end))
        start += plan.hop_frames
    return windows


def alignment_cost(prev_overlap, curr_overlap, permutation):
    """Sum of squared differences between adjacent windows' separated signals
    (masked reference magnitudes) over the overlapping frames."""
    prev_overlap = np.asarray(prev_overlap, dtype=np.float64)
    curr_overlap = np.asarray(curr_overlap, dtype=np.float64)
    if prev_overlap.shape != curr_overlap.shape:
        raise ShapeError("overlap regions must share a shape")
    diff = prev_overlap - curr_overlap[list(permutation)]
    return float(np.sum(diff**2))


def align_and_emit(state, window_masks, window_ref_mag, window_range):
    """Align one window's permutation with the previous window and emit the
    new (non-overlapping) frames.

    window_ref_mag: (frames, bins) reference-channel magnitude of the window.
    Returns (new_state, (emit_start, emit_end), permuted MaskSet). The first
    window emits all its frames; later windows emit only frames past the
    previous window's end, minimizing latency. Ties choose the identity
    permutation; only data from windows <= the current one is consulted.
    """
    start, end = window_range
    masked = window_masks.speech * window_ref_mag[np.newaxis]  # (2, T, F)
    if state.previous_range is None:
        permutation = (0, 1)
        emit = (start, end)
    else:
        prev_start, prev_end = state.previous_range
        overlap_lo, overlap_hi = start, min(prev_end, end)
        if overlap_hi <= overlap_lo:
            raise ShapeError("adjacent windows do not overlap")
        prev_part = state.previous_masked_mags[
            :, overlap_lo - prev_start : overlap_hi - prev_start
        ]
        curr_part = masked[:, : overlap_hi - start]
        costs = [alignment_cost(prev_part, curr_part, p) for p in PERMUTATIONS]
        permutation = PERMUTATIONS[0] if costs[0] <= costs[1] else PERMUTATIONS[1]
        emit = (prev_end, end)
    permuted = window_masks.permuted(permutation)
    new_state = StitchState(
        permutation=permutation,
        previous_masked_mags=masked[list(permutation)],
        previous_range=window_range,
    )
    return new_state, emit, permuted


def separate_windows(
    spec,
    provider,
    plan,
    mode,
    geometry,
    merge_threshold_deg=15.0,
    interference_mode="ssn",
):
    """Run the separation pipeline window by window.

    spec: a Spectrogram or StftFrames whose channels are the microphones of
    geometry, in order; each window's frames are asked for through
    spec.frames(start, end), in order, as are the provider's masks. mode
    "masking" reads only channel geometry.reference_index of them and
    applies the stitched masks to it, so spec may hold that microphone
    alone, with a one-microphone geometry. mode "beamforming" reads every
    channel: it additionally merges same-direction heads and runs the MVDR
    beamformer per window, both from one window_covariances of the window
    (recomputed only when the heads merge). Yields (emit_lo, emit_hi,
    frames) for each window: the (2, emit_hi - emit_lo, bins) output spectra
    of the frames it emits. The emitted ranges follow each other and cover
    [0, spec.frame_count); only emitted frames are masked or weighted.
    """
    if mode not in ("masking", "beamforming"):
        raise ValueError(f"unknown mode {mode!r}")
    if spec.channel_count != geometry.channel_count:
        raise ShapeError(f"{spec.channel_count} channels, {geometry.channel_count} microphones")
    windows = plan_windows(spec.frame_count, plan)
    if mode == "beamforming":
        yield from _beamforming_windows(
            spec, provider, windows, geometry, merge_threshold_deg, interference_mode
        )
        return
    ref = geometry.reference_index
    state = StitchState()
    for c, (start, end) in enumerate(windows):
        mset = normalize_masks(provider.mask_for_window(c, start, end))
        window_ref = spec.frames(start, end)[ref]
        state, (emit_lo, emit_hi), permuted = align_and_emit(
            state, mset, np.abs(window_ref), (start, end)
        )
        emitted = slice(emit_lo - start, emit_hi - start)
        yield emit_lo, emit_hi, permuted.speech[:, emitted] * window_ref[np.newaxis, emitted]


def _beamforming_windows(spec, provider, windows, geometry, merge_threshold_deg, interference_mode):
    """separate_windows in mode "beamforming", as an ordered pipeline.

    A window's work up to its output does not depend on the stitcher's
    permutation, which only reorders the two outputs, so it runs in the
    provider's head order, on up to one window per CPU at a time: on one
    helper thread per further CPU, with OpenBLAS held to one thread, and on
    the calling thread. The calling thread reads each window's frames and
    masks in order, runs the first window no helper has started while the
    oldest is unfinished, and stitches and yields the finished windows in
    order. Closing the generator cancels the windows not yet started and
    waits for the helpers to stop.

    Each helper allocates from a heap of its own, which keeps what it frees.
    So the calling thread's share of the windows saves one helper, and the
    first window runs alone on the calling thread: the DOA grid it builds,
    once per run, then comes from the calling thread's heap.
    """
    state = StitchState()
    with ExitStack() as stack:
        pinned = stack.enter_context(parallel.one_blas_thread())
        workers = min(parallel.worker_count(), len(windows)) if pinned else 1
        # no thread starts before a window is submitted
        helpers = ThreadPoolExecutor(max(workers - 1, 1), thread_name_prefix="unmix-window")
        stack.callback(helpers.shutdown, cancel_futures=True)

        def submitted():
            emit_lo = 0  # the first window emits all its frames, later ones those past the previous
            for c, (start, end) in enumerate(windows):
                mset = provider.mask_for_window(c, start, end)
                window_data = spec.frames(start, end)
                work = functools.partial(
                    _beamform_unstitched,
                    Spectrogram(data=window_data, config=spec.config, sample_rate=spec.sample_rate),
                    mset,
                    slice(emit_lo - start, end - start),
                    geometry,
                    merge_threshold_deg,
                    interference_mode,
                )
                # an unsubmitted future stays pending until the calling thread runs it
                yield (start, end), work, helpers.submit(work) if c and workers > 1 else Future()
                emit_lo = end

        jobs = submitted()
        pending = deque(islice(jobs, 1))
        while pending:
            if not pending[0][2].done():
                _run_first_unstarted(pending)
            window_range, _, job = pending.popleft()
            mset, ref_mag, out = job.result()
            state, (emit_lo, emit_hi), _ = align_and_emit(state, mset, ref_mag, window_range)
            pending.extend(islice(jobs, workers - len(pending)))
            yield emit_lo, emit_hi, out[list(state.permutation)]


def _run_first_unstarted(pending):
    """Run on this thread the first of the pending (range, work, future)
    windows that no helper has started, and put a future of its outcome in
    its place."""
    for i, (window_range, work, future) in enumerate(pending):
        if future.cancel():
            done = Future()
            try:
                done.set_result(work())
            except Exception as exc:  # raised in window order, from the result
                done.set_exception(exc)
            pending[i] = window_range, work, done
            return


def _beamform_unstitched(window, mset, emitted, geometry, merge_threshold_deg, interference_mode):
    """One beamforming window in the provider's head order: its normalized,
    possibly merged masks, its reference-channel magnitude and the (2,
    emitted frames, bins) output."""
    mset = normalize_masks(mset)
    covs = window_covariances(window.data, mset, interference_mode)
    merged = merge_heads_if_same_doa(
        mset, window, geometry, merge_threshold_deg, covariances=covs
    )
    if merged is not mset:
        mset, covs = merged, window_covariances(window.data, merged, interference_mode)
    ref = geometry.reference_index
    out = beamform_window(window.data, mset, ref, covs, emitted)
    return mset, np.abs(window.data[ref]), out


def run_pipeline(
    spec,
    provider,
    plan,
    mode,
    geometry,
    merge_threshold_deg=15.0,
    interference_mode="ssn",
):
    """separate_windows over a whole Spectrogram, collected into a pair of
    single-channel Spectrograms covering the full input length."""
    out = np.zeros((2, spec.frame_count, spec.bins), dtype=np.complex128)
    for emit_lo, emit_hi, frames in separate_windows(
        spec, provider, plan, mode, geometry, merge_threshold_deg, interference_mode
    ):
        out[:, emit_lo:emit_hi] = frames
    return tuple(
        Spectrogram(data=out[i : i + 1], config=spec.config, sample_rate=spec.sample_rate)
        for i in range(2)
    )
