import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unmix.beamformer import window_covariances
from unmix.errors import NoSignalError, ShapeError
from unmix.masks import (
    EPS,
    MaskSet,
    circular_difference_deg,
    doa_from_eigenvectors,
    estimate_doa,
    merge_heads_if_same_doa,
    normalize_masks,
    oracle_masks,
    steering_vectors,
)
from unmix.signal_io import ArrayGeometry, circular_array
from unmix.stft import Spectrogram, StftConfig

from conftest import plane_wave_spectrogram


def _spec(data, fs=16000):
    return Spectrogram(data=data, config=StftConfig(), sample_rate=fs)


def _mono_spec(mag_or_complex):
    return _spec(np.asarray(mag_or_complex, dtype=np.complex128)[np.newaxis])


class TestOracleMasks:
    def _random_scene(self, rng, frames=12):
        bins_ = StftConfig().bins
        s0 = rng.uniform(0, 1, (frames, bins_))
        s1 = rng.uniform(0, 1, (frames, bins_))
        n = rng.uniform(0, 1, (frames, bins_))
        mix = s0 + s1 + n
        return mix, s0, s1, n

    def test_single_active_source(self, rng):
        bins_ = StftConfig().bins
        s0 = rng.uniform(0.5, 1.0, (8, bins_))
        zero = np.zeros_like(s0)
        mset = oracle_masks(_mono_spec(s0), [_mono_spec(s0), _mono_spec(zero)], _mono_spec(zero))
        assert np.all(mset.speech[0] > 0.999)
        assert np.all(mset.speech[1] == 0.0)
        assert np.all(mset.noise == 0.0)

    def test_equal_sources_split_half(self):
        bins_ = StftConfig().bins
        s = np.full((4, bins_), 0.7)
        zero = np.zeros_like(s)
        mset = oracle_masks(_mono_spec(2 * s), [_mono_spec(s), _mono_spec(s)], _mono_spec(zero))
        np.testing.assert_allclose(mset.speech[0], 0.5, atol=1e-9)
        np.testing.assert_allclose(mset.speech[1], 0.5, atol=1e-9)

    def test_matches_direct_ratio_oracle(self, rng):
        mix, s0, s1, n = self._random_scene(rng)
        mset = oracle_masks(_mono_spec(mix), [_mono_spec(s0), _mono_spec(s1)], _mono_spec(n))
        expected0 = s0 / (s0 + s1 + n + 1e-10)
        np.testing.assert_allclose(mset.speech[0], expected0, atol=1e-12)
        total = mset.speech[0] + mset.speech[1] + mset.noise
        np.testing.assert_allclose(total, 1.0, atol=1e-6)

    def test_permutation_covariance(self, rng):
        mix, s0, s1, n = self._random_scene(rng)
        a = oracle_masks(_mono_spec(mix), [_mono_spec(s0), _mono_spec(s1)], _mono_spec(n))
        b = oracle_masks(_mono_spec(mix), [_mono_spec(s1), _mono_spec(s0)], _mono_spec(n))
        np.testing.assert_array_equal(a.speech[0], b.speech[1])
        np.testing.assert_array_equal(a.speech[1], b.speech[0])

    def test_shape_mismatch_raises(self, rng):
        bins_ = StftConfig().bins
        with pytest.raises(ShapeError):
            oracle_masks(
                _mono_spec(np.ones((4, bins_))),
                [_mono_spec(np.ones((5, bins_))), _mono_spec(np.ones((4, bins_)))],
                _mono_spec(np.ones((4, bins_))),
            )


class TestNormalizeMasks:
    def test_already_normalized_unchanged(self):
        mset = MaskSet(
            speech=np.stack([np.full((3, 4), 0.5), np.full((3, 4), 0.25)]),
            noise=np.full((3, 4), 0.25),
        )
        out = normalize_masks(mset)
        np.testing.assert_allclose(out.speech[0], 0.5, atol=1e-12)
        np.testing.assert_allclose(out.noise, 0.25, atol=1e-12)

    def test_symmetric_rescale(self):
        mset = MaskSet(
            speech=np.stack([np.ones((2, 2)), np.ones((2, 2))]),
            noise=np.zeros((2, 2)),
        )
        out = normalize_masks(mset)
        np.testing.assert_allclose(out.speech, 0.5, atol=1e-12)
        np.testing.assert_allclose(out.noise, 0.0, atol=1e-12)

    def test_degenerate_bin_goes_uniform(self):
        mset = MaskSet(speech=np.zeros((2, 2, 2)), noise=np.zeros((2, 2)))
        out = normalize_masks(mset)
        np.testing.assert_allclose(out.speech, 1.0 / 3.0)
        np.testing.assert_allclose(out.noise, 1.0 / 3.0)

    def test_sum_to_one_for_arbitrary_inputs(self, rng):
        mset = MaskSet(
            speech=rng.uniform(0, 1, (2, 10, 20)), noise=rng.uniform(0, 1, (10, 20))
        )
        out = normalize_masks(mset)
        total = out.speech[0] + out.speech[1] + out.noise
        np.testing.assert_allclose(total, 1.0, atol=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.integers(1, 12),
        bins=st.integers(1, 12),
        zero_fraction=st.floats(0.0, 1.0),
        scale_exponent=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sum_to_one_in_every_bin(self, frames, bins, zero_fraction, scale_exponent, seed):
        # some bins all zero, and the rest scaled down so that some of them
        # fall below the degenerate threshold without being zero
        rng = np.random.default_rng(seed)
        masks = rng.uniform(0, 1, (3, frames, bins)) * 10.0**-scale_exponent
        masks[:, rng.uniform(size=(frames, bins)) < zero_fraction] = 0.0
        out = normalize_masks(MaskSet(speech=masks[:2], noise=masks[2]))
        total = out.speech[0] + out.speech[1] + out.noise
        np.testing.assert_allclose(total, 1.0, atol=1e-12)
        for m in (out.speech, out.noise):
            assert np.all((m >= 0.0) & (m <= 1.0))
        zero = np.all(masks == 0.0, axis=0)
        np.testing.assert_array_equal(out.noise[zero], 1.0 / 3.0)

    @pytest.mark.filterwarnings("error")  # no division by a zero total
    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.integers(1, 12),
        bins=st.integers(1, 12),
        zero_fraction=st.sampled_from([0.0, 0.0, 0.3, 1.0]),
        scale_exponent=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_formula_with_a_guard_in_every_bin(
        self, frames, bins, zero_fraction, scale_exponent, seed
    ):
        rng = np.random.default_rng(seed)
        masks = rng.uniform(0, 1, (3, frames, bins)) * 10.0**-scale_exponent
        masks[:, rng.uniform(size=(frames, bins)) < zero_fraction] = 0.0
        given_masks = masks.copy()
        # the formula that guards every bin, degenerate or not
        total = masks[0] + masks[1] + masks[2]
        degenerate = total < EPS
        safe_total = np.where(degenerate, 1.0, total)
        speech = np.where(degenerate[np.newaxis], 1.0 / 3.0, masks[:2] / safe_total)
        noise = np.where(degenerate, 1.0 / 3.0, masks[2] / safe_total)
        out = normalize_masks(MaskSet(speech=masks[:2], noise=masks[2]))
        np.testing.assert_array_equal(out.speech, speech)
        np.testing.assert_array_equal(out.noise, noise)
        np.testing.assert_array_equal(masks, given_masks)


class TestPermuted:
    @pytest.mark.parametrize("permutation", [(0, 1), (1, 0)])
    def test_views_of_the_heads_in_permutation_order(self, rng, permutation):
        mset = MaskSet(speech=rng.uniform(0, 1, (2, 5, 7)), noise=rng.uniform(0, 1, (5, 7)))
        permuted = mset.permuted(permutation)
        for i, head in enumerate(permutation):
            np.testing.assert_array_equal(permuted.speech[i], mset.speech[head])
            assert np.shares_memory(permuted.speech[i], mset.speech[head])
        assert permuted.noise is mset.noise


class TestDoa:
    def test_plane_wave_from_zero_degrees(self, geometry):
        spec = plane_wave_spectrogram(geometry, 0.0, frames=60)
        ones = np.ones((spec.frame_count, spec.bins))
        az = estimate_doa(ones, spec, geometry)
        assert circular_difference_deg(az, 0.0) <= 2.0

    def test_rotating_the_array_shifts_the_estimate(self, geometry):
        spec = plane_wave_spectrogram(geometry, 0.0, frames=60)
        ones = np.ones((spec.frame_count, spec.bins))
        theta = np.deg2rad(90.0)
        rot = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0],
                [np.sin(theta), np.cos(theta), 0],
                [0, 0, 1],
            ]
        )
        rotated = ArrayGeometry(
            positions=geometry.positions @ rot.T,
            reference_index=geometry.reference_index,
        )
        az = estimate_doa(ones, spec, rotated)
        assert circular_difference_deg(az, 90.0) <= 2.0

    def test_two_sources_with_oracle_mask(self, geometry):
        spec_a = plane_wave_spectrogram(geometry, 0.0, frames=60, seed=1)
        spec_b = plane_wave_spectrogram(geometry, 120.0, frames=60, seed=2)
        mix = Spectrogram(
            data=spec_a.data + spec_b.data,
            config=spec_a.config,
            sample_rate=16000,
        )
        mag_a = np.abs(spec_a.data[geometry.reference_index])
        mag_b = np.abs(spec_b.data[geometry.reference_index])
        mask_a = mag_a / (mag_a + mag_b + 1e-10)
        az = estimate_doa(mask_a, mix, geometry)
        assert circular_difference_deg(az, 0.0) <= 5.0

    def test_scale_invariance(self, geometry):
        spec = plane_wave_spectrogram(geometry, 45.0, frames=40)
        scaled = Spectrogram(data=spec.data * 7.5, config=spec.config, sample_rate=16000)
        ones = np.ones((spec.frame_count, spec.bins))
        assert estimate_doa(ones, spec, geometry) == estimate_doa(
            ones, scaled, geometry
        )

    def test_all_zero_mask_raises(self, geometry):
        spec = plane_wave_spectrogram(geometry, 0.0, frames=10)
        with pytest.raises(NoSignalError):
            estimate_doa(np.zeros((spec.frame_count, spec.bins)), spec, geometry)


    def test_steering_grid_built_once_per_geometry_band_and_grid(
        self, geometry, monkeypatch
    ):
        spec = plane_wave_spectrogram(geometry, 45.0, frames=30)
        at_8k = plane_wave_spectrogram(geometry, 45.0, frames=30, sample_rate=8000)
        ones = np.ones((spec.frame_count, spec.bins))
        calls = []

        def counting(*args):
            calls.append(args)
            return steering_vectors(*args)

        monkeypatch.setattr("unmix.masks.steering_vectors", counting)
        monkeypatch.setattr("unmix.masks._doa_grid_cache", {})
        first = estimate_doa(ones, spec, geometry)
        assert estimate_doa(ones, spec, geometry) == first
        assert len(calls) == 1
        estimate_doa(ones, spec, geometry, grid_deg=2.0)
        shifted = ArrayGeometry(positions=geometry.positions + 0.01)
        estimate_doa(ones, spec, shifted)
        assert circular_difference_deg(estimate_doa(ones, at_8k, geometry), 45.0) <= 2.0
        assert len(calls) == 4
        assert estimate_doa(ones, spec, geometry) == first


    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        azimuths=st.tuples(
            st.floats(0.0, 360.0, exclude_max=True), st.floats(0.0, 360.0, exclude_max=True)
        ),
        mode=st.sampled_from(["ssn", "complement"]),
    )
    def test_shared_eigenvectors_give_estimate_doa(self, seed, azimuths, mode):
        geometry = circular_array()
        a = plane_wave_spectrogram(geometry, azimuths[0], frames=20, seed=seed % 1000)
        b = plane_wave_spectrogram(geometry, azimuths[1], frames=20, seed=seed % 1000 + 1)
        rng = np.random.default_rng(seed)
        noise = 0.1 * (rng.standard_normal(a.data.shape) + 1j * rng.standard_normal(a.data.shape))
        spec = _spec(a.data + b.data + noise)
        masks = rng.uniform(0, 1, (3, spec.frame_count, spec.bins))
        mset = MaskSet(speech=masks[:2], noise=masks[2])
        covs = window_covariances(spec.data, mset, mode)
        shared = doa_from_eigenvectors(covs.vectors, spec.bin_frequencies(), geometry)
        np.testing.assert_array_equal(shared, estimate_doa(mset.speech, spec, geometry))


class TestMergeHeads:
    def _split_mask_set(self, spec, geometry, rng):
        # one physical source artificially split across both heads
        mag = np.abs(spec.data[geometry.reference_index])
        split = rng.uniform(0.2, 0.8, size=mag.shape)
        active = (mag > np.median(mag)).astype(float)
        return MaskSet(
            speech=np.stack([split * active, (1 - split) * active]),
            noise=1.0 - active,
        )

    def test_same_source_split_across_heads_is_merged(self, geometry, rng):
        spec = plane_wave_spectrogram(geometry, 30.0, frames=60)
        mset = self._split_mask_set(spec, geometry, rng)
        expected_dominant = 0 if mset.speech[0].sum() >= mset.speech[1].sum() else 1
        out = merge_heads_if_same_doa(mset, spec, geometry)
        merged = np.clip(mset.speech[0] + mset.speech[1], 0, 1)
        np.testing.assert_allclose(out.speech[expected_dominant], merged)
        assert np.all(out.speech[1 - expected_dominant] == 0.0)

    def test_distinct_sources_not_merged(self, geometry):
        spec_a = plane_wave_spectrogram(geometry, 0.0, frames=60, seed=3)
        spec_b = plane_wave_spectrogram(geometry, 90.0, frames=60, seed=4)
        mix = Spectrogram(
            data=spec_a.data + spec_b.data, config=spec_a.config, sample_rate=16000
        )
        mag_a = np.abs(spec_a.data[0])
        mag_b = np.abs(spec_b.data[0])
        total = mag_a + mag_b + 1e-10
        mset = MaskSet(
            speech=np.stack([mag_a / total, mag_b / total]),
            noise=np.zeros_like(mag_a),
        )
        out = merge_heads_if_same_doa(mset, mix, geometry)
        np.testing.assert_array_equal(out.speech, mset.speech)

    def test_threshold_is_strict_less_than(self, geometry, monkeypatch):
        spec = plane_wave_spectrogram(geometry, 0.0, frames=20)
        mset = MaskSet(
            speech=np.stack(
                [
                    np.full((spec.frame_count, spec.bins), 0.5),
                    np.full((spec.frame_count, spec.bins), 0.4),
                ]
            ),
            noise=np.zeros((spec.frame_count, spec.bins)),
        )
        calls = []
        monkeypatch.setattr(  # difference exactly 15 degrees
            "unmix.masks.doa_from_eigenvectors",
            lambda *a, **k: calls.append(a) or np.array([10.0, 25.0]),
        )
        out = merge_heads_if_same_doa(mset, spec, geometry, threshold_deg=15.0)
        np.testing.assert_array_equal(out.speech, mset.speech)
        assert len(calls) == 1

    def test_single_empty_head_left_unmerged(self, geometry):
        spec = plane_wave_spectrogram(geometry, 0.0, frames=20)
        mset = MaskSet(
            speech=np.stack(
                [
                    np.full((spec.frame_count, spec.bins), 0.8),
                    np.zeros((spec.frame_count, spec.bins)),
                ]
            ),
            noise=np.zeros((spec.frame_count, spec.bins)),
        )
        out = merge_heads_if_same_doa(mset, spec, geometry)
        np.testing.assert_array_equal(out.speech, mset.speech)

    def test_merge_is_idempotent(self, geometry, rng):
        spec = plane_wave_spectrogram(geometry, 30.0, frames=60)
        mset = self._split_mask_set(spec, geometry, rng)
        once = merge_heads_if_same_doa(mset, spec, geometry)
        twice = merge_heads_if_same_doa(once, spec, geometry)
        np.testing.assert_array_equal(once.speech, twice.speech)
        np.testing.assert_array_equal(once.noise, twice.noise)
