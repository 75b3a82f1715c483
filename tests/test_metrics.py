import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unmix.errors import ShapeError, UndefinedMetricError
from unmix.metrics import (
    SI_SDR_CAP_DB,
    activity_frames_from_segments,
    best_permutation_eval,
    channel_leakage_db,
    check_nonmixing,
    si_sdr,
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
        for trial in range(10):
            local = np.random.default_rng(trial)
            ests = [local.standard_normal(800) for _ in range(2)]
            refs = [local.standard_normal(800) for _ in range(2)]
            report = best_permutation_eval(ests, refs)
            totals = {
                perm: si_sdr(ests[0], refs[perm[0]]) + si_sdr(ests[1], refs[perm[1]])
                for perm in ((0, 1), (1, 0))
            }
            assert report.total_si_sdr() == pytest.approx(
                max(totals.values()), abs=1e-9
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


class TestChannelLeakage:
    def test_silent_idle_channel_is_very_negative(self, rng):
        act = [np.ones(100, dtype=bool), np.zeros(100, dtype=bool)]
        est = [rng.standard_normal(100), np.zeros(100)]
        assert channel_leakage_db(est, act) < -200.0

    def test_equal_energy_is_zero_db(self, rng):
        act = [np.ones(50, dtype=bool), np.zeros(50, dtype=bool)]
        x = rng.standard_normal(50)
        y = rng.permutation(x)
        assert channel_leakage_db([x, y], act) == pytest.approx(0.0, abs=1e-9)

    def test_no_solo_frames_returns_none(self, rng):
        act = [np.ones(10, dtype=bool), np.ones(10, dtype=bool)]
        est = [rng.standard_normal(10), rng.standard_normal(10)]
        assert channel_leakage_db(est, act) is None


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
        segments = data.draw(
            st.lists(st.tuples(st.integers(0, bound), st.integers(0, bound)), max_size=4)
        )
        out = activity_frames_from_segments(segments, num_samples, hop, window_size)
        assert len(out) == len(segments)
        for (start, end), active in zip(segments, out):
            expected = np.zeros(frames, dtype=bool)
            if end > start:
                for t in range(frames):
                    lo, hi = t * hop, t * hop + window_size
                    expected[t] = lo < end and hi > start
            np.testing.assert_array_equal(active, expected)
