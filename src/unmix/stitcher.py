"""Sliding-window engine: window planning, cross-window permutation
alignment, and the end-to-end masking/beamforming pipeline."""

import functools
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import parallel
from .beamformer import beamform_window, window_covariances
from .errors import InsufficientInputError, ShapeError
from .masks import DOA_MERGE_THRESHOLD_DEG, doa_grid, merge_heads_if_same_doa, normalize_masks
from .pit import PERMUTATIONS, alignment_cost, permute_heads
from .stft import Spectrogram, join


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


def align_and_emit(state, window_masks, window_ref_mag, window_range):
    """Align one window's permutation with the previous window and emit the
    new (non-overlapping) frames.

    window_ref_mag: (frames, bins) reference-channel magnitude of the window.
    Returns (new_state, (emit_start, emit_end), permuted MaskSet); that
    MaskSet and the state's masked magnitudes are views of the window's
    arrays, not copies. The first window emits all its frames; later
    windows emit only frames past the previous window's end, minimizing
    latency. Ties choose the identity permutation; only data from windows
    <= the current one is consulted.
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
    new_state = StitchState(
        permutation=permutation,
        previous_masked_mags=permute_heads(masked, permutation),
        previous_range=window_range,
    )
    return new_state, emit, window_masks.permuted(permutation)


def separate_windows(
    spec,
    provider,
    plan,
    mode,
    geometry,
    merge_threshold_deg=DOA_MERGE_THRESHOLD_DEG,
    interference_mode="ssn",
):
    """Run the separation pipeline window by window.

    spec: a Spectrogram or FrameSource whose channels are the microphones
    of geometry, in order; each window's frames are asked for in order, as
    are the provider's masks: through spec.frames(start, end) in masking
    mode and spec.pieces(start, end) in beamforming mode. mode
    "masking" reads only channel geometry.reference_index of them and
    applies the stitched masks to it, so spec may hold that microphone
    alone, with a one-microphone geometry. mode "beamforming" reads every
    channel: it additionally merges same-direction heads and runs the MVDR
    beamformer per window, both from one window_covariances of the window
    (recomputed only when the heads merge). Yields (emit_lo, emit_hi,
    frames) for each window: the (2, emit_hi - emit_lo, bins) output spectra
    of the frames it emits. The emitted ranges follow each other and cover
    [0, spec.frame_count); only emitted frames are masked or weighted.

    The calling thread reads each window's masks and frames, in order, into
    a job that returns the window's masks, reference magnitude and output in
    the provider's head order (the permutation only reorders the outputs),
    then aligns and yields the windows in order. A beamforming job holds
    the window's pieces, views that the windows in flight share where they
    overlap, so a window read ahead holds no copy of its frames (the
    pieces of StftFrames are the frames each window adds; WpeFrames serves
    each range as one piece). Beamforming jobs run on
    every CPU through parallel.ordered, with one window read past those
    running, so no CPU waits for the calling thread to read the next; the
    DOA steering grid they share (masks.doa_grid) is built on the calling
    thread, whose freed memory is at hand (a helper's own glibc heap would
    add the grid's temporaries to the peak), once the first window's frames
    are read and before its job is queued: with a WpeFrames spec, after WPE's
    first solve has let go of its input frames. Masking jobs, each a small
    product, run on the calling thread: each helper's own heap would add to
    the peak.
    """
    if mode not in ("masking", "beamforming"):
        raise ValueError(f"unknown mode {mode!r}")
    if spec.channel_count != geometry.channel_count:
        raise ShapeError(f"{spec.channel_count} channels, {geometry.channel_count} microphones")
    windows = plan_windows(spec.frame_count, plan)

    def jobs(read, job):
        emit_lo = 0  # the first window emits all its frames, later ones those past the previous
        for c, (start, end) in enumerate(windows):
            mset = normalize_masks(provider.mask_for_window(c, start, end))
            yield functools.partial(job, read(start, end), mset, slice(emit_lo - start, end - start))
            emit_lo = end

    if mode == "masking":
        job = functools.partial(_mask_unstitched, geometry.reference_index)
        results = (run() for run in jobs(spec.frames, job))
    else:

        def read(start, end):
            pieces = spec.pieces(start, end)
            if start == 0:  # the first window: the grid takes what its read let go
                doa_grid(geometry, spec.bin_frequencies())
            return pieces

        job = functools.partial(
            _beamform_unstitched, geometry, spec, merge_threshold_deg, interference_mode
        )
        results = parallel.ordered(jobs(read, job))
    state = StitchState()
    with closing(results):
        for window_range, (mset, ref_mag, out) in zip(windows, results):
            state, (emit_lo, emit_hi), _ = align_and_emit(state, mset, ref_mag, window_range)
            yield emit_lo, emit_hi, permute_heads(out, state.permutation)


def _mask_unstitched(ref, window, mset, emitted):
    """One masking window, its (channels, frames, bins) array, in the
    provider's head order: its masks, its reference-channel magnitude and
    the (2, emitted frames, bins) output."""
    window_ref = window[ref]
    return mset, np.abs(window_ref), mset.speech[:, emitted] * window_ref[np.newaxis, emitted]


def _beamform_unstitched(
    geometry, spec, merge_threshold_deg, interference_mode, pieces, mset, emitted
):
    """One beamforming window, its spec.pieces, in the provider's head
    order: its possibly merged masks, its reference-channel magnitude and
    the (2, emitted frames, bins) output. The emitted frames are a view of
    the newest piece where it holds them all, as it does for the STFT."""
    covs = window_covariances(pieces, mset, interference_mode)
    merged = merge_heads_if_same_doa(mset, spec, geometry, merge_threshold_deg, covariances=covs)
    if merged is not mset:
        mset, covs = merged, window_covariances(pieces, merged, interference_mode)
    ref, newest, count = geometry.reference_index, pieces[-1], emitted.stop - emitted.start
    if newest.shape[1] < count:  # the emitted frames span pieces
        newest = join(pieces)
    out = beamform_window(newest[:, newest.shape[1] - count :], mset, ref, covs, emitted)
    return mset, np.concatenate([np.abs(piece[ref]) for piece in pieces]), out


def run_pipeline(
    spec,
    provider,
    plan,
    mode,
    geometry,
    merge_threshold_deg=DOA_MERGE_THRESHOLD_DEG,
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
