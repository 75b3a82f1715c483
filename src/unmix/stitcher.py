"""Sliding-window engine: window planning, cross-window permutation
alignment, and the end-to-end masking/beamforming pipeline."""

from dataclasses import dataclass

import numpy as np

from .beamformer import beamform_window
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

    spec: a Spectrogram or StftFrames; each window's frames are asked for
    through spec.frames(start, end), in order. mode "masking" applies the
    stitched masks to the reference channel; mode "beamforming"
    additionally merges same-direction heads and runs the MVDR beamformer
    per window. Yields (emit_lo, emit_hi, frames) for each window: the
    (2, emit_hi - emit_lo, bins) output spectra of the frames it emits. The
    emitted ranges follow each other and cover [0, spec.frame_count).
    """
    if mode not in ("masking", "beamforming"):
        raise ValueError(f"unknown mode {mode!r}")
    ref = geometry.reference_index
    state = StitchState()
    for c, (start, end) in enumerate(plan_windows(spec.frame_count, plan)):
        mset = provider.mask_for_window(c, start, end)
        mset = normalize_masks(mset)
        window_data = spec.frames(start, end)
        if mode == "beamforming":
            window_slice = Spectrogram(
                data=window_data, config=spec.config, sample_rate=spec.sample_rate
            )
            mset = merge_heads_if_same_doa(
                mset, window_slice, geometry, threshold_deg=merge_threshold_deg
            )
        ref_mag = np.abs(window_data[ref])
        state, (emit_lo, emit_hi), permuted = align_and_emit(
            state, mset, ref_mag, (start, end)
        )
        if mode == "masking":
            window_out = permuted.speech * window_data[ref][np.newaxis]
        else:
            window_out = beamform_window(
                window_data, permuted, ref, interference_mode=interference_mode
            )
        yield emit_lo, emit_hi, window_out[:, emit_lo - start : emit_hi - start]


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
