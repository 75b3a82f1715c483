"""Output checker: decides whether one `unmix separate` run was correct."""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io.wavfile

from unmix.metrics import activity_frames_from_segments, best_permutation_eval, check_nonmixing
from unmix.stitcher import plan_windows

@dataclass
class CheckResult:
    si_sdri_db: float = float("nan")
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems


def _read_stream(path):
    _, data = scipy.io.wavfile.read(path)
    return np.asarray(data, dtype=np.float64)


def check_outputs(scene, outdir):
    """Check out0.wav/out1.wav in `outdir` against the scene's truth."""
    result = CheckResult()
    estimates = []
    for i in (0, 1):
        path = Path(outdir) / f"out{i}.wav"
        if not path.is_file():
            result.problems.append(f"missing {path.name}")
            return result
        x = _read_stream(path)
        if x.shape != (scene.num_samples,):
            result.problems.append(f"{path.name} has shape {x.shape}, expected ({scene.num_samples},)")
        elif not np.all(np.isfinite(x)):
            result.problems.append(f"{path.name} has non-finite samples")
        estimates.append(x)
    if result.problems:
        return result

    # At a scene boundary the talkers change and no utterance spans it, so
    # the streams may trade places there without breaking non-mixing.
    # Quality is therefore scored per scene, as `unmix evaluate` scores a
    # directory of scenes, and averaged.
    reports = [
        best_permutation_eval(
            [e[lo:hi] for e in estimates],
            list(scene.references[:, lo:hi]),
            mixture_ref=scene.mixture_ref[lo:hi],
        )
        for lo, hi in scene.scene_bounds()
    ]
    result.si_sdri_db = float(np.mean([r.si_sdr_improvement for r in reports]))
    floor = scene.workload.si_sdri_floor_db
    if not result.si_sdri_db >= floor:
        result.problems.append(f"SI-SDR improvement {result.si_sdri_db:.2f} dB is below {floor} dB")

    rate = nonmixing_rate(scene, estimates)
    if rate != 0.0:
        result.problems.append(f"non-mixing violation rate {rate:.4f}")

    if scene.swaps is not None:
        swapped = swapped_windows(scene, estimates, reports[0].permutation_used)
        if swapped:
            result.problems.append(
                f"{len(swapped)} windows emitted with heads swapped, first is window {swapped[0]}"
            )
    return result


def nonmixing_rate(scene, estimates):
    """Non-mixing violation rate of the per-utterance assignment the outputs
    imply: each utterance goes to the output that correlates best with it."""
    assignment = []
    for u in scene.utterances:
        truth = scene.streams[u.stream, u.start : u.end]
        assignment.append(int(np.argmax([np.dot(e[u.start : u.end], truth) for e in estimates])))
    activity = activity_frames_from_segments(
        [(u.start, u.end) for u in scene.utterances],
        scene.num_samples,
        scene.stft.hop,
        scene.stft.window_size,
    )
    return check_nonmixing(assignment, activity)


def swapped_windows(scene, estimates, permutation):
    """Windows whose newly emitted frames match the truth streams better under
    the opposite of `permutation` (output i carries stream permutation[i])."""
    hop = scene.stft.hop
    windows = plan_windows(scene.stft.frame_count(scene.num_samples), scene.plan)
    swapped = []
    emitted = windows[0][0]
    for c, (_, end) in enumerate(windows):
        lo, hi = emitted * hop, end * hop
        emitted = end
        keep, flip = (
            sum(np.dot(estimates[i][lo:hi], scene.streams[p[i]][lo:hi]) for i in (0, 1))
            for p in (permutation, permutation[::-1])
        )
        if keep <= flip:
            swapped.append(c)
    return swapped
