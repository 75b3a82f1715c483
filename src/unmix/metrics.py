"""Evaluation: scale-invariant SDR, permutation search, channel-leakage and
nonmixing-condition checking."""

import json
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
        return float(sum(self.per_channel_si_sdr))

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    def to_kv_text(self):
        lines = []
        for key, value in asdict(self).items():
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"


def si_sdr(estimate, reference, cap_db=SI_SDR_CAP_DB):
    """Scale-invariant signal-to-distortion ratio in dB, capped at 60 dB.

    10 log10(||a s||^2 / ||a s - s_hat||^2) with the optimal scale
    a = <s_hat, s> / ||s||^2; invariant to positive scaling of the estimate.
    """
    estimate = np.asarray(estimate, dtype=np.float64).ravel()
    reference = np.asarray(reference, dtype=np.float64).ravel()
    if estimate.shape != reference.shape:
        raise ShapeError("estimate and reference lengths differ")
    ref_energy = float(np.dot(reference, reference))
    if ref_energy <= 0.0:
        raise UndefinedMetricError("SI-SDR is undefined for a zero reference")
    alpha = float(np.dot(estimate, reference)) / ref_energy
    target = alpha * reference
    target_energy = float(np.dot(target, target))
    error_energy = float(np.sum((target - estimate) ** 2))
    if error_energy <= target_energy * 10.0 ** (-cap_db / 10.0):
        return cap_db
    if target_energy == 0.0:
        return -cap_db
    ratio = 10.0 * np.log10(target_energy / error_energy)
    return float(np.clip(ratio, -cap_db, cap_db))


def best_permutation_eval(estimates, references, mixture_ref=None):
    """Evaluate a channel pair under both output-to-reference assignments.

    A reference that is entirely zero (single-speaker scenes) is skipped in
    the totals. When `mixture_ref` is given, si_sdr_improvement is the mean
    per-channel gain over evaluating the unprocessed mixture instead.
    """
    if len(estimates) != 2 or len(references) != 2:
        raise ShapeError("expected two estimates and two references")

    def scores(assignment):
        vals = []
        for i in (0, 1):
            ref = references[assignment[i]]
            if np.dot(ref, ref) == 0.0:
                vals.append(None)
            else:
                vals.append(si_sdr(estimates[i], ref))
        return vals

    candidates = {}
    for assignment in ((0, 1), (1, 0)):
        vals = scores(assignment)
        total = sum(v for v in vals if v is not None)
        candidates[assignment] = (total, vals)
    best = max(candidates, key=lambda a: candidates[a][0])
    total, vals = candidates[best]

    improvement = None
    if mixture_ref is not None:
        gains = []
        for i in (0, 1):
            ref = references[best[i]]
            if np.dot(ref, ref) == 0.0 or vals[i] is None:
                continue
            gains.append(vals[i] - si_sdr(mixture_ref, ref))
        improvement = float(np.mean(gains)) if gains else None
    return EvalReport(
        per_channel_si_sdr=tuple(v if v is not None else float("nan") for v in vals),
        permutation_used=best,
        si_sdr_improvement=improvement,
    )


def check_nonmixing(assignment, activity):
    """Violation rate of the nonmixing condition for a channel assignment.

    assignment: mapping utterance index -> output channel. activity: per
    utterance, a boolean frame-activity array (all the same length). Returns
    the fraction of frames with any activity in which two utterances sharing
    a channel are simultaneously active.
    """
    activity = [np.asarray(a, dtype=bool) for a in activity]
    if len(assignment) != len(activity):
        raise ValueError(
            f"assignment covers {len(assignment)} utterances, activity {len(activity)}"
        )
    if any(ch < 0 for ch in assignment):
        raise ValueError(f"assignment names a negative output channel: {list(assignment)}")
    if not activity:
        return 0.0
    n = len(activity[0])
    for a in activity:
        if len(a) != n:
            raise ShapeError("activity arrays must share one length")
    by_channel = {}
    for k, ch in enumerate(assignment):
        by_channel.setdefault(ch, []).append(activity[k])
    any_active = np.zeros(n, dtype=bool)
    for a in activity:
        any_active |= a
    active_frames = int(np.sum(any_active))
    if active_frames == 0:
        return 0.0
    violated = np.zeros(n, dtype=bool)
    for members in by_channel.values():
        if len(members) < 2:
            continue
        counts = np.sum(np.stack(members), axis=0)
        violated |= counts >= 2
    return float(np.sum(violated)) / active_frames


def channel_leakage_db(estimates, activity_per_channel):
    """Energy of the idle channel relative to the active one, in dB.

    Evaluated over frames where exactly one output channel should be active;
    returns None when no such frames exist.
    """
    act = [np.asarray(a, dtype=bool) for a in activity_per_channel]
    solo0 = act[0] & ~act[1]
    solo1 = act[1] & ~act[0]
    ratios = []
    for active_ch, frames in ((0, solo0), (1, solo1)):
        if not np.any(frames):
            continue
        idle_ch = 1 - active_ch
        e_active = float(np.sum(np.asarray(estimates[active_ch])[frames] ** 2))
        e_idle = float(np.sum(np.asarray(estimates[idle_ch])[frames] ** 2))
        if e_active > 0:
            ratios.append(10.0 * np.log10(max(e_idle, 1e-30) / e_active))
    if not ratios:
        return None
    return float(np.mean(ratios))


def activity_frames_from_segments(segments, num_samples, hop, window_size):
    """Convert per-utterance sample segments to per-frame boolean activity.

    A frame is active when its window overlaps the active sample range.
    """
    frames = (num_samples - window_size) // hop + 1
    out = []
    for start, end in segments:
        active = np.zeros(frames, dtype=bool)
        if end > start:
            first = max((start - window_size) // hop + 1, 0)  # first t: t*hop + W > start
            stop = max(-(-end // hop), 0)  # first t with t*hop >= end
            active[int(first) : int(stop)] = True
        out.append(active)
    return out
