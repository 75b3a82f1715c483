import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unmix.errors import ShapeError, UndefinedMetricError
from unmix.metrics import (
    SI_SDR_CAP_DB,
    activity_frame_ranges,
    activity_frames_from_segments,
    activity_runs,
    best_permutation_eval,
    channel_leakage_db,
    check_nonmixing,
    nonmixing_rate,
    si_sdr,
    solo_ranges,
)


class TestSiSdr:
    def test_identity_hits_cap(self, rng):
        s = rng.standard_normal(4000)
        assert si_sdr(s, s) == SI_SDR_CAP_DB

    def test_scale_invariant(self, rng):
        s = rng.standard_normal(4000)
        noisy = s + 0.1 * rng.standard_normal(4000)
        base = si_sdr(noisy, s)
        assert si_sdr(3.7 * noisy, s) == pytest.approx(base, abs=1e-9)
        assert si_sdr(0.01 * noisy, s) == pytest.approx(base, abs=1e-9)

    def test_orthogonal_unit_noise_gives_zero_db(self):
        # estimate = s + n with <n, s> = 0 and ||n|| = ||s||: exactly 0 dB
        n = 1024
        t = np.arange(n)
        s = np.sqrt(2.0) * np.sin(2 * np.pi * 8 * t / n)
        noise = np.sqrt(2.0) * np.cos(2 * np.pi * 8 * t / n)
        assert abs(np.dot(s, noise)) < 1e-9
        assert si_sdr(s + noise, s) == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_formula(self, rng):
        s = rng.standard_normal(500)
        est = 0.8 * s + 0.3 * rng.standard_normal(500)
        alpha = np.dot(est, s) / np.dot(s, s)
        expected = 10 * np.log10(
            np.sum((alpha * s) ** 2) / np.sum((alpha * s - est) ** 2)
        )
        assert si_sdr(est, s) == pytest.approx(expected, abs=1e-12)

    def test_negative_cap(self, rng):
        s = rng.standard_normal(1000)
        orth = rng.standard_normal(1000)
        orth -= np.dot(orth, s) / np.dot(s, s) * s  # exactly orthogonal
        assert si_sdr(orth, s) == -SI_SDR_CAP_DB

    def test_zero_reference_raises(self, rng):
        with pytest.raises(UndefinedMetricError):
            si_sdr(rng.standard_normal(100), np.zeros(100))

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            si_sdr(rng.standard_normal(10), rng.standard_normal(11))

    def test_anticorrelated_estimate_not_above_cap(self, rng):
        s = rng.standard_normal(300)
        assert si_sdr(-s, s) == SI_SDR_CAP_DB  # alpha = -1 recovers it exactly


class TestBestPermutationEval:
    def _signals(self, rng):
        a = rng.standard_normal(2000)
        b = rng.standard_normal(2000)
        return a, b

    def test_picks_identity_when_aligned(self, rng):
        a, b = self._signals(rng)
        report = best_permutation_eval(
            [a + 0.1 * b, b + 0.1 * a], [a, b]
        )
        assert report.permutation_used == (0, 1)
        assert report.per_channel_si_sdr[0] > 10.0

    def test_picks_swap_when_crossed(self, rng):
        a, b = self._signals(rng)
        report = best_permutation_eval([b, a], [a, b])
        assert report.permutation_used == (1, 0)
        assert report.per_channel_si_sdr == (SI_SDR_CAP_DB, SI_SDR_CAP_DB)

    def test_matches_brute_force_totals(self, rng):
        def per_sample_si_sdr(estimate, reference):
            # the scaled reference and the error formed sample by sample
            alpha = np.dot(estimate, reference) / np.dot(reference, reference)
            target_energy = np.sum((alpha * reference) ** 2)
            error_energy = np.sum((alpha * reference - estimate) ** 2)
            if error_energy <= target_energy * 10.0 ** (-SI_SDR_CAP_DB / 10.0):
                return SI_SDR_CAP_DB
            if target_energy == 0.0:
                return -SI_SDR_CAP_DB
            ratio = 10.0 * np.log10(target_energy / error_energy)
            return float(np.clip(ratio, -SI_SDR_CAP_DB, SI_SDR_CAP_DB))

        cases = []
        for trial in range(10):
            local = np.random.default_rng(trial)
            ests = [local.standard_normal(800) for _ in range(2)]
            cases.append((ests, [local.standard_normal(800) for _ in range(2)]))
        a, b, c = (rng.standard_normal(800) for _ in range(3))
        cases += [
            ([a, b], [c, np.zeros(800)]),  # a zero reference is skipped
            ([np.zeros(800), b], [a, b]),  # a silent estimate
            ([-a + 0.1 * c, b], [a, b + c]),  # an anticorrelated estimate
        ]
        for ests, refs in cases:
            report = best_permutation_eval(ests, refs)
            totals = {
                perm: sum(
                    si_sdr(ests[i], refs[perm[i]]) for i in (0, 1) if np.any(refs[perm[i]])
                )
                for perm in ((0, 1), (1, 0))
            }
            assert report.total_si_sdr() == pytest.approx(
                max(totals.values()), abs=1e-9
            )
            for i, ref in enumerate(refs[k] for k in report.permutation_used):
                expected = per_sample_si_sdr(ests[i], ref) if np.any(ref) else np.nan
                assert report.per_channel_si_sdr[i] == pytest.approx(
                    expected, abs=1e-9, nan_ok=True
                )

    def test_zero_reference_skipped(self, rng):
        a = rng.standard_normal(1000)
        report = best_permutation_eval([a, 0.01 * rng.standard_normal(1000)],
                                       [a, np.zeros(1000)])
        assert report.per_channel_si_sdr[0] == SI_SDR_CAP_DB
        assert np.isnan(report.per_channel_si_sdr[1])

    def test_improvement_against_mixture(self, rng):
        a, b = self._signals(rng)
        mixture = a + b
        report = best_permutation_eval([a, b], [a, b], mixture_ref=mixture)
        manual = np.mean(
            [SI_SDR_CAP_DB - si_sdr(mixture, a), SI_SDR_CAP_DB - si_sdr(mixture, b)]
        )
        assert report.si_sdr_improvement == pytest.approx(manual, abs=1e-9)

    def test_wrong_count_raises(self, rng):
        with pytest.raises(ShapeError):
            best_permutation_eval([rng.standard_normal(10)], [rng.standard_normal(10)])


class TestCheckNonmixing:
    def test_disjoint_same_channel_ok(self):
        activity = [
            np.array([1, 1, 0, 0], dtype=bool),
            np.array([0, 0, 1, 1], dtype=bool),
        ]
        assert check_nonmixing((0, 0), activity) == 0.0

    def test_overlap_on_different_channels_ok(self):
        activity = [
            np.array([1, 1, 1, 0], dtype=bool),
            np.array([0, 1, 1, 1], dtype=bool),
        ]
        assert check_nonmixing((0, 1), activity) == 0.0

    def test_hand_counted_violation_rate(self):
        # utterances share channel 0 and are co-active on 25 of 100 frames;
        # every frame has some activity
        act0 = np.zeros(100, dtype=bool)
        act1 = np.zeros(100, dtype=bool)
        act0[:60] = True
        act1[35:100] = True
        assert check_nonmixing((0, 0), [act0, act1]) == 25 / 100

    def test_rate_normalized_by_active_frames(self):
        act0 = np.zeros(100, dtype=bool)
        act1 = np.zeros(100, dtype=bool)
        act0[10:30] = True  # 20 frames
        act1[20:40] = True  # 20 frames, 10 overlapping
        # any-active frames: 10..40 -> 30
        assert check_nonmixing((1, 1), [act0, act1]) == pytest.approx(10 / 30)

    def test_silence_gives_zero(self):
        activity = [np.zeros(10, dtype=bool), np.zeros(10, dtype=bool)]
        assert check_nonmixing((0, 0), activity) == 0.0

    def test_three_utterances_two_channels(self):
        a = np.array([1, 1, 0, 0, 0], dtype=bool)
        b = np.array([0, 1, 1, 0, 0], dtype=bool)
        c = np.array([0, 0, 1, 1, 0], dtype=bool)
        # a and c share channel 0 but never overlap; b alone on channel 1
        assert check_nonmixing((0, 1, 0), [a, b, c]) == 0.0
        # b and c share channel 1 and overlap on frame 2 of 4 active frames
        assert check_nonmixing((0, 1, 1), [a, b, c]) == pytest.approx(1 / 4)

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            check_nonmixing((0, 0), [np.zeros(4, bool), np.zeros(5, bool)])

    def test_assignment_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="covers"):
            check_nonmixing((0, 1, 0), [np.zeros(4, bool), np.zeros(4, bool)])
        with pytest.raises(ValueError, match="covers"):
            check_nonmixing((0,), [])

    def test_negative_channel_raises(self):
        with pytest.raises(ValueError, match="negative"):
            check_nonmixing((0, -1), [np.zeros(4, bool), np.zeros(4, bool)])

    def test_channel_numbers_are_not_utterance_indices(self):
        # one utterance on output 1 is a valid assignment
        assert check_nonmixing([1], [np.ones(4, bool)]) == 0.0
        assert check_nonmixing((5, 5), [np.ones(4, bool), np.zeros(4, bool)]) == 0.0


def per_frame_nonmixing(assignment, activity):
    """The nonmixing rule frame by frame: the share of frames with any
    activity in which some channel has two utterances active."""
    if not activity:
        return 0.0
    activity, assignment = np.stack(activity), np.asarray(assignment)
    active_frames = np.count_nonzero(activity.any(axis=0))
    if active_frames == 0:
        return 0.0
    violated = np.zeros(activity.shape[1], dtype=bool)
    for ch in set(assignment):
        violated |= activity[assignment == ch].sum(axis=0) >= 2
    return np.count_nonzero(violated) / active_frames


@st.composite
def utterance_activity(draw):
    """An assignment to channels 0-5 and, per utterance, a boolean frame
    array made of several (possibly touching or overlapping) runs."""
    frames = draw(st.integers(1, 60))
    assignment, activity = [], []
    for _ in range(draw(st.integers(0, 6))):
        active = np.zeros(frames, dtype=bool)
        runs = st.tuples(st.integers(0, frames - 1), st.integers(1, 12))
        for start, length in draw(st.lists(runs, max_size=4)):
            active[start : start + length] = True
        activity.append(active)
        assignment.append(draw(st.integers(0, 5)))
    return assignment, activity


class TestActivityRuns:
    def test_hand_checked_runs(self):
        intervals = [(0, 4, 0), (2, 6, 0), (3, 5, 1), (7, 7, 1), (9, 8, 0)]
        assert activity_runs(intervals) == [
            (0, 2, {0: 1}),
            (2, 3, {0: 2}),
            (3, 4, {0: 2, 1: 1}),
            (4, 5, {0: 1, 1: 1}),
            (5, 6, {0: 1}),
        ]
        assert solo_ranges(intervals) == [(0, 0, 2), (0, 2, 3), (0, 5, 6)]  # one channel, any count
        assert nonmixing_rate(intervals) == 2 / 6  # frames 2 and 3 of 0..5
        assert nonmixing_rate([]) == 0.0 and solo_ranges([]) == []

    @settings(max_examples=300, deadline=None)
    @given(utterance_activity())
    def test_check_nonmixing_equals_the_per_frame_rule(self, case):
        assignment, activity = case
        assert check_nonmixing(assignment, activity) == per_frame_nonmixing(assignment, activity)

    def test_memory_of_the_range_path_does_not_grow_with_the_recording(self):
        # 1 h at 16 kHz, 1,000 utterances of 3 s; one boolean frame array per
        # utterance would take 1000 x 224,999 bytes
        rng = np.random.default_rng(5)
        num_samples, length = 3600 * 16000, 3 * 16000
        starts = rng.integers(0, num_samples - length, 1000).tolist()
        segments = [(start, start + length) for start in starts]
        channels = rng.integers(0, 2, 1000).tolist()
        tracemalloc.start()
        try:
            ranges = activity_frame_ranges(segments, num_samples, 256, 512)
            rate = nonmixing_rate([(lo, hi, ch) for (lo, hi), ch in zip(ranges, channels)])
            solo = solo_ranges([(a, b, ch) for (a, b), ch in zip(segments, channels)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, peak
        assert 0.0 < rate < 1.0 and solo


def solo_energy(estimates, activity):
    """The table channel_leakage_db takes, from per-sample stream activity:
    entry [c][i] is the energy of estimate i where stream c alone is active."""
    act = [np.asarray(a, dtype=bool) for a in activity]
    return [[np.sum(np.asarray(e)[act[c] & ~act[1 - c]] ** 2) for e in estimates] for c in (0, 1)]


class TestChannelLeakage:
    def test_silent_idle_channel_is_very_negative(self, rng):
        act = [np.ones(100, dtype=bool), np.zeros(100, dtype=bool)]
        est = [rng.standard_normal(100), np.zeros(100)]
        assert channel_leakage_db(solo_energy(est, act)) < -200.0

    def test_equal_energy_is_zero_db(self, rng):
        act = [np.ones(50, dtype=bool), np.zeros(50, dtype=bool)]
        x = rng.standard_normal(50)
        y = rng.permutation(x)
        assert channel_leakage_db(solo_energy([x, y], act)) == pytest.approx(0.0, abs=1e-9)

    def test_no_solo_frames_returns_none(self, rng):
        act = [np.ones(10, dtype=bool), np.ones(10, dtype=bool)]
        est = [rng.standard_normal(10), rng.standard_normal(10)]
        assert channel_leakage_db(solo_energy(est, act)) is None


class TestActivityFrames:
    def test_hand_checked_frame_window_overlap(self):
        # hop 4, window 8, 20 samples -> 4 frames at starts 0, 4, 8, 12
        frames = activity_frames_from_segments([(9, 12)], 20, hop=4, window_size=8)
        # frame windows: [0,8) [4,12) [8,16) [12,20): overlap with [9,12)
        np.testing.assert_array_equal(frames[0], [False, True, True, False])

    def test_full_span_always_active(self):
        frames = activity_frames_from_segments([(0, 20)], 20, 4, 8)
        assert frames[0].all()

    def test_empty_segment_inactive(self):
        frames = activity_frames_from_segments([(5, 5)], 20, 4, 8)
        assert not frames[0].any()

    @settings(max_examples=300, deadline=None)
    @given(
        hop=st.integers(1, 64),
        extra=st.integers(0, 64),
        frames=st.integers(1, 40),
        data=st.data(),
    )
    def test_matches_per_frame_loop(self, hop, extra, frames, data):
        window_size = hop + extra
        num_samples = window_size + (frames - 1) * hop + data.draw(st.integers(0, hop - 1))
        bound = num_samples + 2 * window_size
        utterances = data.draw(
            st.lists(
                st.tuples(st.integers(0, bound), st.integers(0, bound), st.integers(0, 2)),
                max_size=4,
            )
        )
        segments = [(start, end) for start, end, _ in utterances]
        out = activity_frames_from_segments(segments, num_samples, hop, window_size)
        assert len(out) == len(segments)
        for (start, end), active in zip(segments, out):
            expected = np.zeros(frames, dtype=bool)
            if end > start:
                for t in range(frames):
                    lo, hi = t * hop, t * hop + window_size
                    expected[t] = lo < end and hi > start
            np.testing.assert_array_equal(active, expected)
        # the ranges evaluate scores are the arrays' runs, and rate alike
        ranges = activity_frame_ranges(segments, num_samples, hop, window_size)
        for (lo, hi), active in zip(ranges, out):
            np.testing.assert_array_equal(np.flatnonzero(active), np.arange(lo, hi))
        channels = [ch for _, _, ch in utterances]
        intervals = [(lo, hi, ch) for (lo, hi), ch in zip(ranges, channels)]
        assert nonmixing_rate(intervals) == check_nonmixing(channels, out)
