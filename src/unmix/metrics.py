"""Evaluation: scale-invariant SDR, permutation search, channel-leakage and
nonmixing-condition checking."""

import json
from collections import Counter
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ShapeError, UndefinedMetricError

SI_SDR_CAP_DB = 60.0


@dataclass
class EvalReport:
    per_channel_si_sdr: tuple
    permutation_used: tuple
    si_sdr_improvement: float = None  # dB vs the unprocessed mixture, if given
    nonmixing_violation_rate: float = None
    leakage_db: float = None

    def total_si_sdr(self):
        return float(np.nansum(self.per_channel_si_sdr))  # a skipped channel is NaN

    def to_json(self):
        fields = asdict(self)  # a skipped channel is written as null
        fields["per_channel_si_sdr"] = [None if np.isnan(v) else v for v in self.per_channel_si_sdr]
        return json.dumps(fields, indent=2, allow_nan=False)

    def to_kv_text(self):
        lines = []
        for key, value in asdict(self).items():
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"


def si_sdr_from_sums(cross, ref_energy, est_energy):
    """Scale-invariant signal-to-distortion ratio in dB, within +-SI_SDR_CAP_DB,
    from cross = <s_hat, s>, ref_energy = ||s||^2 and est_energy = ||s_hat||^2.

    10 log10(||a s||^2 / ||a s - s_hat||^2) with the optimal scale
    a = <s_hat, s> / ||s||^2; ||a s||^2 = cross^2 / ref_energy, and the
    error energy is est_energy less that.
    """
    if ref_energy <= 0.0:
        raise UndefinedMetricError("SI-SDR is undefined for a zero reference")
    target_energy = cross * cross / ref_energy
    error_energy = max(est_energy - target_energy, 0.0)
    if error_energy <= target_energy * 10.0 ** (-SI_SDR_CAP_DB / 10.0):
        return SI_SDR_CAP_DB
    if target_energy == 0.0:
        return -SI_SDR_CAP_DB
    ratio = 10.0 * np.log10(target_energy / error_energy)
    return float(np.clip(ratio, -SI_SDR_CAP_DB, SI_SDR_CAP_DB))


def _gram(signals):
    """The Gram matrix of equal-length signals: entry (i, j) is <x_i, x_j>."""
    rows = [np.asarray(x, dtype=np.float64).ravel() for x in signals]
    if len({len(x) for x in rows}) > 1:
        raise ShapeError("estimate and reference lengths differ")
    rows = np.stack(rows)
    return rows @ rows.T


def si_sdr(estimate, reference):
    """SI-SDR of an estimate against a reference (see si_sdr_from_sums)."""
    g = _gram([estimate, reference])
    return si_sdr_from_sums(g[0, 1], g[1, 1], g[0, 0])


def permutation_eval(gram):
    """Score a channel pair under both output-to-stream assignments, from the
    Gram matrix of [out0, out1, stream0, stream1] and, when it is 5 x 5, of
    the mixture's reference channel last.

    A stream that is entirely zero (single-speaker scenes) is skipped in the
    totals. With the mixture, si_sdr_improvement is the mean per-channel gain
    over evaluating the unprocessed mixture instead.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.shape not in ((4, 4), (5, 5)):
        raise ShapeError(f"expected the 4 x 4 or 5 x 5 Gram matrix, got {gram.shape}")

    def score(row, stream):
        ref = 2 + stream
        if gram[ref, ref] == 0.0:
            return None
        return si_sdr_from_sums(gram[row, ref], gram[ref, ref], gram[row, row])

    def total(assignment):  # a skipped stream adds nothing
        return sum(score(i, s) or 0.0 for i, s in enumerate(assignment))

    best = max(((0, 1), (1, 0)), key=total)  # the identity on a tie
    vals = [score(i, s) for i, s in enumerate(best)]
    gains = [v - score(4, s) for v, s in zip(vals, best) if v is not None and len(gram) == 5]
    improvement = float(np.mean(gains)) if gains else None
    return EvalReport(
        per_channel_si_sdr=tuple(v if v is not None else float("nan") for v in vals),
        permutation_used=best,
        si_sdr_improvement=improvement,
    )


def best_permutation_eval(estimates, references, mixture_ref=None):
    """permutation_eval of two estimates, two references and, optionally, the mixture."""
    if len(estimates) != 2 or len(references) != 2:
        raise ShapeError("expected two estimates and two references")
    mixture = [] if mixture_ref is None else [mixture_ref]
    return permutation_eval(_gram([*estimates, *references, *mixture]))


def activity_runs(intervals):
    """(lo, hi, counts) per run [lo, hi) of one set of active (lo, hi, channel)
    intervals, counts[channel] of them; one sweep over their sorted edges."""
    edges = sorted(
        (x, step, ch) for lo, hi, ch in intervals if lo < hi for x, step in ((lo, 1), (hi, -1))
    )
    counts, runs = Counter(), []
    for (x, step, ch), (end, _, _) in zip(edges, edges[1:]):
        counts[ch] += step
        if end > x and (active := +counts):  # + drops the channels at 0
            runs.append((x, end, active))
    return runs


def nonmixing_rate(intervals):
    """Violation rate of the nonmixing condition over (lo, hi, channel) intervals:
    the share of their active span in which two on one channel are active."""
    runs = activity_runs(intervals)
    active = sum(hi - lo for lo, hi, _ in runs)
    violated = sum(hi - lo for lo, hi, counts in runs if max(counts.values()) > 1)
    return violated / active if active else 0.0


def solo_ranges(intervals):
    """(channel, lo, hi) per run of (lo, hi, channel) intervals with one channel active."""
    return [(*counts, lo, hi) for lo, hi, counts in activity_runs(intervals) if len(counts) == 1]


def check_nonmixing(assignment, activity):
    """Violation rate of the nonmixing condition for a channel assignment.

    assignment: mapping utterance index -> output channel. activity: per
    utterance, a boolean frame-activity array (all the same length). Returns
    the fraction of frames with any activity in which two utterances sharing
    a channel are simultaneously active (nonmixing_rate of the arrays' runs).
    """
    activity = [np.asarray(a, dtype=bool) for a in activity]
    if len(assignment) != len(activity):
        raise ValueError(
            f"assignment covers {len(assignment)} utterances, activity {len(activity)}"
        )
    if any(ch < 0 for ch in assignment):
        raise ValueError(f"assignment names a negative output channel: {list(assignment)}")
    if len({len(a) for a in activity}) > 1:
        raise ShapeError("activity arrays must share one length")
    edges = [np.flatnonzero(np.diff(a, prepend=False, append=False)) for a in activity]
    runs = [(a, b, ch) for e, ch in zip(edges, assignment) for a, b in e.reshape(-1, 2).tolist()]
    return nonmixing_rate(runs)


def channel_leakage_db(solo_energy):
    """Energy of the idle output relative to the active one, in dB.

    solo_energy[c][i]: the energy of output i over the samples where stream
    c alone is active. A stream without such samples, or whose own output is
    silent over them, is left out; returns None when both are.
    """
    ratios = [
        10.0 * np.log10(max(energy[1 - c], 1e-30) / energy[c])
        for c, energy in enumerate(solo_energy)
        if energy[c] > 0
    ]
    return float(np.mean(ratios)) if ratios else None


def activity_frame_ranges(segments, num_samples, hop, window_size):
    """Per [start, end) sample segment, the frames [lo, hi) whose window overlaps it."""
    frames = (num_samples - window_size) // hop + 1
    ranges = []
    for start, end in segments:
        lo = max((start - window_size) // hop + 1, 0)  # first t: t*hop + W > start
        hi = min(-(-end // hop), frames) if end > start else lo  # first t with t*hop >= end
        ranges.append((lo, max(hi, lo)))
    return ranges


def activity_frames_from_segments(segments, num_samples, hop, window_size):
    """activity_frame_ranges as per-frame boolean activity arrays."""
    out = [np.zeros((num_samples - window_size) // hop + 1, dtype=bool) for _ in segments]
    for a, (lo, hi) in zip(out, activity_frame_ranges(segments, num_samples, hop, window_size)):
        a[lo:hi] = True
    return out
