import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unmix.beamformer import (
    apply_weights,
    beamform_window,
    gain_adjust,
    mvdr_weights,
    principal_component,
    principal_pair,
    sig_cov,
    window_covariances,
)
from unmix.errors import ContractViolationError
from unmix.masks import MaskSet, steering_vectors
from unmix.signal_io import circular_array
from unmix.stft import StftConfig

from conftest import plane_wave_spectrogram


def random_psd(rng, j, bins_=1):
    a = rng.standard_normal((bins_, j, j)) + 1j * rng.standard_normal((bins_, j, j))
    return a @ np.conj(np.swapaxes(a, 1, 2)) + 0.1 * np.eye(j)


class TestSigCov:
    def test_plane_wave_is_rank_one_dominant(self, geometry):
        spec = plane_wave_spectrogram(geometry, 20.0, frames=120)
        mask = np.ones((spec.frame_count, spec.bins))
        cov = sig_cov(spec.data, mask)
        eigvals = np.linalg.eigvalsh(cov)
        ratio = eigvals[:, -1] / np.maximum(np.abs(eigvals[:, -2]), 1e-300)
        assert np.all(ratio > 100.0)

    def test_empty_mask_gives_zero(self, geometry):
        spec = plane_wave_spectrogram(geometry, 0.0, frames=30)
        cov = sig_cov(spec.data, np.zeros((spec.frame_count, spec.bins)))
        assert np.all(cov == 0.0)

    def test_matches_naive_accumulation(self, rng, geometry):
        spec = plane_wave_spectrogram(geometry, 10.0, frames=20)
        data = spec.data + 0.3 * (
            rng.standard_normal(spec.data.shape)
            + 1j * rng.standard_normal(spec.data.shape)
        )
        j = data.shape[0]
        for stack in [(), (3,)]:  # one mask, then a stack of three heads
            masks = rng.uniform(0, 1, stack + (spec.frame_count, spec.bins))
            cov = sig_cov(data, masks)
            assert cov.shape == stack + (spec.bins, j, j)
            for h in np.ndindex(stack):
                mask = masks[h]
                for f in [0, 57, 256]:
                    acc = np.zeros((j, j), dtype=np.complex128)
                    norm = 0.0
                    for t in range(spec.frame_count):
                        v = mask[t, f] * data[:, t, f]
                        acc += np.outer(v, np.conj(v))
                        norm += mask[t, f] ** 2
                    expected = acc / max(norm, 1e-10)
                    assert np.max(np.abs(cov[h][f] - expected)) < 1e-10

    def test_outputs_hermitian_psd(self, rng, geometry):
        data = rng.standard_normal((7, 15, 257)) + 1j * rng.standard_normal((7, 15, 257))
        for stack in [(), (3,)]:
            cov = sig_cov(data, rng.uniform(0, 1, stack + (15, 257)))
            herm_err = np.max(np.abs(cov - np.conj(np.swapaxes(cov, -1, -2))))
            assert herm_err < 1e-10
            eigvals = np.linalg.eigvalsh(cov)
            traces = np.real(np.trace(cov, axis1=-2, axis2=-1))
            assert np.all(eigvals[..., 0] >= -1e-8 * np.maximum(traces, 1e-30))


    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
        j=st.integers(1, 7),
        frames=st.integers(1, 40),
        bins_=st.integers(1, 20),
        zero_first=st.booleans(),
    )
    def test_matches_masked_outer_product_reference(
        self, seed, stack, j, frames, bins_, zero_first
    ):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((j, frames, bins_)) + 1j * rng.standard_normal(
            (j, frames, bins_)
        )
        masks = rng.uniform(0, 1, stack + (frames, bins_))
        if zero_first:
            masks.reshape((-1, frames, bins_))[0] = 0.0
        cov = sig_cov(data, masks)
        mx = masks[..., np.newaxis, :, :] * data  # (..., J, T, F)
        num = np.einsum("...itf,...ktf->...fik", mx, np.conj(mx))
        expected = num / np.maximum(np.sum(masks**2, axis=-2), 1e-10)[..., None, None]
        scale = np.max(np.abs(expected), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(cov - expected) <= 1e-12 * scale)
        if zero_first:
            assert np.all(cov.reshape((-1, bins_, j, j))[0] == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stack=st.sampled_from([(), (3,)]),
        j=st.integers(1, 7),
        frames=st.integers(1, 40),
        bins_=st.integers(1, 40),
        channel_innermost=st.booleans(),
        data=st.data(),
    )
    def test_any_split_into_pieces_gives_the_whole_window_covariances(
        self, seed, stack, j, frames, bins_, channel_innermost, data
    ):
        rng = np.random.default_rng(seed)
        window = rng.standard_normal((j, frames, bins_)) + 1j * rng.standard_normal(
            (j, frames, bins_)
        )
        if channel_innermost:  # the layout of the frames the STFT makes
            window = np.ascontiguousarray(np.transpose(window, (1, 2, 0))).transpose(2, 0, 1)
        masks = rng.uniform(0, 1, stack + (frames, bins_))
        cuts = sorted(data.draw(st.lists(st.integers(0, frames), max_size=5)))
        pieces = [window[:, lo:hi] for lo, hi in zip([0, *cuts], [*cuts, frames])]
        np.testing.assert_array_equal(sig_cov(pieces, masks), sig_cov(window, masks))


class TestMvdrWeights:
    def _rank_one_setup(self, rng, j=7, bins_=257):
        freqs = np.linspace(100, 8000, bins_)
        geometry = circular_array()
        d = steering_vectors(geometry, freqs, [33.0])[0]  # (F, J)
        sigma2 = rng.uniform(0.5, 2.0, bins_)
        phi = sigma2[:, None, None] * d[:, :, None] * np.conj(d[:, None, :])
        psi = random_psd(rng, j, bins_)
        return d, phi, psi

    def test_distortionless_and_matches_closed_form(self, rng):
        r = 0
        d, phi, psi = self._rank_one_setup(rng)
        w = mvdr_weights(phi, psi, reference_index=r)
        response = np.einsum("fj,fj->f", np.conj(w), d)
        assert np.max(np.abs(response - d[:, r])) < 1e-6
        # independent textbook rank-1 MVDR: Psi^-1 d / (d^H Psi^-1 d) * d_R,
        # with the same documented diagonal loading applied to Psi
        for f in [3, 100, 256]:
            loaded = psi[f] + 1e-6 * np.trace(psi[f]).real / 7 * np.eye(7)
            psi_inv_d = np.linalg.solve(loaded, d[f])
            closed = psi_inv_d / (np.conj(d[f]) @ psi_inv_d) * np.conj(d[f, r])
            assert np.max(np.abs(w[f] - closed)) < 1e-5

    def test_zero_target_gives_zero_weights(self, rng):
        psi = random_psd(rng, 4, 8)
        w = mvdr_weights(np.zeros_like(psi), psi, 0)
        assert np.all(w == 0.0)

    def test_two_by_two_symbolic_oracle(self):
        # hand-set Hermitian matrices, explicit 2x2 inverse arithmetic
        phi = np.array([[[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]]])
        psi = np.array([[[4.0, 0.5j], [-0.5j, 2.0]]])
        delta = 1e-6
        load = delta * np.trace(psi[0]).real / 2
        p = psi[0] + load * np.eye(2)
        det = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
        p_inv = np.array([[p[1, 1], -p[0, 1]], [-p[1, 0], p[0, 0]]]) / det
        z = p_inv @ phi[0]
        expected = z[:, 0] / np.trace(z)
        w = mvdr_weights(phi, psi, 0)
        assert np.max(np.abs(w[0] - expected)) < 1e-12

    def test_scale_invariances(self, rng):
        d, phi, psi = self._rank_one_setup(rng)
        base = mvdr_weights(phi, psi, 0)
        phi_scaled = mvdr_weights(7.3 * phi, psi, 0)
        psi_scaled = mvdr_weights(phi, 0.2 * psi, 0)
        assert np.max(np.abs(phi_scaled - base)) < 1e-8
        assert np.max(np.abs(psi_scaled - base)) < 1e-8

    def test_non_hermitian_input_raises(self, rng):
        psi = random_psd(rng, 3, 2)
        bad = psi.copy()
        bad[0, 0, 1] += 1.0
        with pytest.raises(ContractViolationError):
            mvdr_weights(bad, psi, 0)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(2, 7),
        reference=st.integers(0, 6),
        rank=st.integers(1, 14),
        azimuth=st.floats(0.0, 360.0, exclude_max=True),
    )
    def test_distortionless_for_random_psd_interference(
        self, seed, j, reference, rank, azimuth
    ):
        rng = np.random.default_rng(seed)
        r = reference % j
        geometry = circular_array(channels=j, center_mic=False)
        d = steering_vectors(geometry, np.linspace(100, 8000, 16), [azimuth])[0]
        a = rng.standard_normal((16, j, rank)) + 1j * rng.standard_normal((16, j, rank))
        psi = a @ np.conj(np.swapaxes(a, 1, 2))  # Hermitian PSD, singular if rank < j
        phi = d[:, :, None] * np.conj(d[:, None, :])
        w = mvdr_weights(phi, psi, reference_index=r)
        response = np.einsum("fj,fj->f", np.conj(w), d)
        assert np.max(np.abs(response - d[:, r])) < 1e-8


class TestPrincipalComponent:
    def test_rank_one_input_unchanged(self, rng):
        v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        cov = v[:, :, None] * np.conj(v[:, None, :])
        out = principal_component(*principal_pair(cov))
        assert np.max(np.abs(out - cov)) < 1e-10

    def test_keeps_largest_eigenpair(self, rng):
        cov = random_psd(rng, 5, 8)
        out = principal_component(*principal_pair(cov))
        for f in range(8):
            vals, vecs = np.linalg.eigh(cov[f])
            expected = vals[-1] * np.outer(vecs[:, -1], np.conj(vecs[:, -1]))
            assert np.max(np.abs(out[f] - expected)) < 1e-10

    def test_zero_input_stays_zero(self):
        out = principal_component(*principal_pair(np.zeros((3, 4, 4))))
        assert np.all(out == 0.0)

    def test_pair_is_a_view_of_the_largest_eigenpair(self, rng):
        cov = random_psd(rng, 4, 6)
        value, vector = principal_pair(cov)
        assert value.shape == (6,) and vector.shape == (6, 4)
        assert not value.flags.owndata and not vector.flags.owndata
        np.testing.assert_allclose(cov @ vector[..., None], (value[:, None] * vector)[..., None])

    def test_pair_rejects_non_hermitian_input(self, rng):
        cov = random_psd(rng, 3, 2)
        cov[1, 0, 2] += 1.0
        with pytest.raises(ContractViolationError, match="speech"):
            principal_pair(cov)


class TestGainAdjust:
    def test_under_cap_unchanged(self, rng):
        ref = rng.uniform(1.0, 2.0, (5, 6))
        mask = np.ones((5, 6))
        y = 0.5 * ref * np.exp(1j * rng.uniform(-np.pi, np.pi, (5, 6)))
        out = gain_adjust(y, mask, ref)
        np.testing.assert_allclose(out, y, atol=1e-9)

    def test_over_cap_halved_phase_kept(self, rng):
        ref = rng.uniform(1.0, 2.0, (4, 4))
        mask = np.full((4, 4), 0.5)
        phases = rng.uniform(-np.pi, np.pi, (4, 4))
        y = 2.0 * mask * ref * np.exp(1j * phases)
        out = gain_adjust(y, mask, ref)
        np.testing.assert_allclose(np.abs(out), mask * ref, rtol=1e-6)
        np.testing.assert_allclose(np.angle(out), phases, atol=1e-9)

    def test_silent_mask_suppresses_leakage(self, rng):
        ref = rng.uniform(1.0, 2.0, (10, 8))
        mask = np.zeros((10, 8))
        leak = rng.standard_normal((10, 8)) + 1j * rng.standard_normal((10, 8))
        out = gain_adjust(leak, mask, ref)
        suppression = np.sum(np.abs(out) ** 2) / np.sum(np.abs(leak) ** 2)
        assert 10 * np.log10(suppression) < -40.0

    def test_never_increases_magnitude(self, rng):
        ref = rng.uniform(0, 1, (6, 6))
        mask = rng.uniform(0, 1, (6, 6))
        y = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        out = gain_adjust(y, mask, ref)
        assert np.all(np.abs(out) <= np.abs(y) + 1e-12)


class TestBeamformWindow:
    def test_empty_head_outputs_zero(self, geometry, rng):
        spec = plane_wave_spectrogram(geometry, 45.0, frames=80)
        noise = 0.01 * (
            rng.standard_normal(spec.data.shape)
            + 1j * rng.standard_normal(spec.data.shape)
        )
        data = spec.data + noise
        t, f = spec.frame_count, spec.bins
        mset = MaskSet(
            speech=np.stack([np.full((t, f), 0.9), np.zeros((t, f))]),
            noise=np.full((t, f), 0.1),
        )
        out = beamform_window(data, mset, 0, window_covariances(data, mset))
        assert np.all(out[1] == 0.0)
        assert np.sum(np.abs(out[0]) ** 2) > 0.0

    def test_noise_only_window_near_silent(self, geometry, rng):
        data = 1.0 * (
            rng.standard_normal((7, 60, 257)) + 1j * rng.standard_normal((7, 60, 257))
        )
        mset = MaskSet(
            speech=np.full((2, 60, 257), 0.01), noise=np.full((60, 257), 0.98)
        )
        out = beamform_window(data, mset, 0, window_covariances(data, mset))
        in_energy = np.sum(np.abs(data[0]) ** 2)
        for i in range(2):
            out_energy = np.sum(np.abs(out[i]) ** 2)
            assert 10 * np.log10(out_energy / in_energy) < -30.0

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(1, 7),
        frames=st.integers(1, 40),
        bins_=st.integers(1, 20),
    )
    def test_apply_weights_matches_einsum_reference(self, seed, j, frames, bins_):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((j, frames, bins_)) + 1j * rng.standard_normal(
            (j, frames, bins_)
        )
        w = rng.standard_normal((bins_, j)) + 1j * rng.standard_normal((bins_, j))
        expected = np.einsum("fj,jtf->tf", np.conj(w), data)
        out = apply_weights(w, data)
        assert out.shape == (frames, bins_)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))

    def test_apply_weights_matches_manual(self, rng):
        data = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        w = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        out = apply_weights(w, data)
        for t in range(4):
            for f in range(5):
                assert abs(out[t, f] - np.conj(w[f]) @ data[:, t, f]) < 1e-12


def _per_head_beamform(window_data, mask_set, reference_index, covariances, frames):
    """beamform_window as one pass of rank-1 target, Souden MVDR weights,
    their application and the gain cap per speech head, written out here."""
    data = window_data[:, frames]
    ref_mag = np.abs(data[reference_index])
    out = np.empty((2,) + data.shape[1:], dtype=np.complex128)
    for i in range(2):
        value, vector = covariances.value[i], covariances.vector[i]
        scaled = vector * np.sqrt(np.maximum(value, 0.0))[:, np.newaxis]
        phi = scaled[:, :, np.newaxis] * np.conj(scaled[:, np.newaxis, :])
        psi = covariances.psi[i]
        j = psi.shape[1]
        load = 1e-6 * np.maximum(np.real(np.trace(psi, axis1=1, axis2=2)), 1e-10) / j
        z = np.linalg.solve(psi + load[:, np.newaxis, np.newaxis] * np.eye(j), phi)
        denominator = np.trace(z, axis1=1, axis2=2)
        w = np.zeros(psi.shape[:2], dtype=np.complex128)
        active = np.abs(denominator) >= 1e-12
        w[active] = z[:, :, reference_index][active] / denominator[active, np.newaxis]
        y = (np.conj(w)[:, np.newaxis, :] @ np.transpose(data, (2, 0, 1)))[:, 0, :].T
        cap = (mask_set.speech[i][frames] * ref_mag + 1e-10) / (np.abs(y) + 1e-10)
        out[i] = y * np.minimum(1.0, cap)
    return out


class TestBeamformWindowStack:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.integers(2, 7),
        frames=st.integers(1, 40),
        bins_=st.integers(1, 20),
        reference=st.integers(0, 6),
        emitted=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        zero_head=st.sampled_from([None, 0, 1]),
        mode=st.sampled_from(["ssn", "complement"]),
        channel_innermost=st.booleans(),
    )
    def test_equals_one_pass_per_head(
        self, seed, j, frames, bins_, reference, emitted, zero_head, mode, channel_innermost
    ):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((j, frames, bins_)) + 1j * rng.standard_normal(
            (j, frames, bins_)
        )
        if channel_innermost:  # the layout of the windows the STFT makes
            data = np.ascontiguousarray(np.transpose(data, (1, 2, 0))).transpose(2, 0, 1)
        speech = rng.uniform(0, 0.5, (2, frames, bins_))
        if zero_head is not None:
            speech[zero_head] = 0.0
        mset = MaskSet(speech=speech, noise=1.0 - speech.sum(axis=0))
        lo = int(emitted[0] * (frames - 1))
        emit = slice(lo, lo + 1 + int(emitted[1] * (frames - 1 - lo)))
        covs = window_covariances(data, mset, mode)
        out = beamform_window(data[:, emit], mset, reference % j, covs, emit)
        expected = _per_head_beamform(data, mset, reference % j, covs, emit)
        np.testing.assert_array_equal(out, expected)
        if zero_head is not None:
            assert np.all(out[zero_head] == 0.0)
