"""Permutation-invariant and speech-speech-noise training losses as pure
functions, for oracle permutation selection and as a reference objective."""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

PERMUTATIONS = ((0, 1), (1, 0))


def permute_heads(heads, permutation):
    """The two heads of `heads` (2, ...) in `permutation` order, as a view:
    `heads` itself, or reversed for the swap."""
    return heads if tuple(permutation) == (0, 1) else heads[::-1]


def alignment_cost(prev_overlap, curr_overlap, permutation):
    """Sum of squared differences between two head stacks, the second in
    `permutation` order: the stitcher's cost between adjacent windows'
    masked reference magnitudes over their overlapping frames, and the PIT
    loss of one permutation."""
    prev_overlap = np.asarray(prev_overlap, dtype=np.float64)
    curr_overlap = np.asarray(curr_overlap, dtype=np.float64)
    if prev_overlap.shape != curr_overlap.shape:
        raise ShapeError("overlap regions must share a shape")
    diff = prev_overlap - permute_heads(curr_overlap, permutation)
    return float(np.sum(np.square(diff, out=diff)))


@dataclass
class PitResult:
    loss: float
    permutation: tuple
    per_permutation_losses: tuple


def _check_aligned(*mats):
    shape = np.shape(mats[0])
    for m in mats[1:]:
        if np.shape(m) != shape:
            raise ShapeError(f"shape mismatch: {np.shape(m)} vs {shape}")


def pit_loss(speech_masks, mixture_ref_mag, source_mags):
    """Minimum-permutation squared error between masked reference magnitudes
    and the source magnitudes.

    speech_masks: (2, frames, bins); source_mags: pair of (frames, bins).
    The loss is summed (not averaged) over heads, frames and bins; ties are
    broken toward the identity permutation.
    """
    speech_masks = np.asarray(speech_masks, dtype=np.float64)
    mixture_ref_mag = np.asarray(mixture_ref_mag, dtype=np.float64)
    sources = [np.asarray(s, dtype=np.float64) for s in source_mags]
    if speech_masks.shape[0] != 2 or len(sources) != 2:
        raise ShapeError("expected two speech masks and two sources")
    _check_aligned(speech_masks[0], speech_masks[1], mixture_ref_mag, *sources)

    estimates = speech_masks * mixture_ref_mag  # (2, T, F)
    targets = np.stack(sources)
    losses = [alignment_cost(estimates, targets, perm) for perm in PERMUTATIONS]
    best = 0 if losses[0] <= losses[1] else 1
    return PitResult(
        loss=losses[best],
        permutation=PERMUTATIONS[best],
        per_permutation_losses=tuple(losses),
    )


def ssn_loss(mask_set, mixture_ref_mag, source_mags, noise_mag):
    """PIT loss over the speech heads plus the (unpermuted) noise squared error.

    The noise term shifts every permutation's loss equally, so the chosen
    permutation is the same one pit_loss picks.
    """
    noise_mag = np.asarray(noise_mag, dtype=np.float64)
    mixture_ref_mag = np.asarray(mixture_ref_mag, dtype=np.float64)
    _check_aligned(mask_set.noise, mixture_ref_mag, noise_mag)
    speech = pit_loss(mask_set.speech, mixture_ref_mag, source_mags)
    noise_error = float(np.sum((mask_set.noise * mixture_ref_mag - noise_mag) ** 2))
    return PitResult(
        loss=speech.loss + noise_error,
        permutation=speech.permutation,
        per_permutation_losses=tuple(
            l + noise_error for l in speech.per_permutation_losses
        ),
    )
