import numpy as np
import pytest
import scipy.signal

from unmix.errors import GeometryError
from unmix.metrics import check_nonmixing
from unmix.signal_io import SPEED_OF_SOUND, ArrayGeometry, circular_array
from unmix.simulator import (
    RIR_PRE_DELAY,
    MixtureSpec,
    RoomSpec,
    fibonacci_sphere,
    image_method_rir,
    isotropic_noise,
    make_mixture,
    speech_like_source,
)

FS = 16000


def _room(t60=0.3, sources=((1.5, 2.5, 1.5), (4.0, 1.5, 1.5))):
    return RoomSpec(
        dimensions=[6.0, 5.0, 3.0],
        t60=t60,
        source_positions=np.array(sources),
        array_center=[3.0, 3.0, 1.4],
    )


class TestSpecChecks:
    """The specs check their own values, whoever builds them."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field", ["t60", "dimensions", "source_positions", "array_center", "array_geometry"]
    )
    def test_room_rejects_non_finite_values(self, field, bad):
        kwargs = {
            "dimensions": [6.0, 5.0, 3.0],
            "t60": 0.3,
            "source_positions": [[1.5, 2.5, 1.5]],
            "array_center": [3.0, 3.0, 1.4],
        }
        if field == "t60":
            kwargs["t60"] = bad
        elif field == "array_geometry":
            positions = circular_array().positions.copy()
            positions[1, 0] = bad
            kwargs["array_geometry"] = ArrayGeometry(positions=positions)
        else:
            kwargs[field] = np.array(kwargs[field])
            kwargs[field][..., -1] = bad
        with pytest.raises(ValueError, match="finite"):
            RoomSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clip_seconds": np.nan},
            {"clip_seconds": np.inf},
            {"utterance_gains_db": (0.0, np.nan)},
            {"utterance_gains_db": (-np.inf, 0.0)},
            {"noise_snr_db": np.nan},
            {"noise_snr_db": -np.inf},
        ],
    )
    def test_mixture_rejects_non_finite_values(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            MixtureSpec(**kwargs)

    def test_mixture_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            MixtureSpec(seed=-1)


class TestImageMethodRir:
    def test_anechoic_is_single_impulse_with_inverse_law(self):
        room = _room(t60=0.0)
        # source-to-mic distance of exactly 100 samples of travel time
        dist = 100 * SPEED_OF_SOUND / FS
        source = np.array([1.0, 1.0, 1.5])
        mic = source + np.array([dist, 0.0, 0.0])
        rir = image_method_rir(room, source, mic, FS)
        peak = np.argmax(np.abs(rir))
        assert peak == 100 + RIR_PRE_DELAY
        assert rir[peak] == pytest.approx(1.0 / (4.0 * np.pi * dist), rel=1e-6)
        off_peak = np.delete(rir, peak)
        assert np.max(np.abs(off_peak)) < 1e-9 * abs(rir[peak])

    def test_free_field_inverse_distance_law(self):
        room = RoomSpec(
            dimensions=[50.0, 50.0, 50.0],
            t60=0.0,
            source_positions=[[25.0, 25.0, 25.0]],
            array_center=[25.0, 25.0, 25.0],
        )
        source = np.array([10.0, 25.0, 25.0])
        # integer-sample travel times so the sinc kernels are pure impulses
        d1 = 150 * SPEED_OF_SOUND / FS
        near = image_method_rir(room, source, source + [d1, 0, 0], FS)
        far = image_method_rir(room, source, source + [2 * d1, 0, 0], FS)
        assert np.max(np.abs(near)) == pytest.approx(
            2 * np.max(np.abs(far)), rel=1e-6
        )

    def test_schroeder_decay_matches_t60(self):
        t60 = 0.5
        room = _room(t60=t60)
        rir = image_method_rir(room, room.source_positions[0], room.mic_positions()[0], FS)
        energy = rir**2
        edc = np.cumsum(energy[::-1])[::-1]
        edc_db = 10 * np.log10(np.maximum(edc / edc[0], 1e-30))
        onset = int(np.argmax(np.abs(rir) > 0.01 * np.max(np.abs(rir))))
        crossing = onset + int(np.argmax(edc_db[onset:] <= -60.0))
        t60_est = (crossing - onset) / FS
        assert abs(t60_est - t60) <= 0.2 * t60

    def test_source_outside_room_raises(self):
        room = _room()
        with pytest.raises(GeometryError):
            image_method_rir(room, [7.0, 1.0, 1.0], room.mic_positions()[0], FS)


class TestIsotropicNoise:
    def test_coherence_matches_spherical_profile(self):
        geometry = circular_array()
        wave = isotropic_noise(geometry, seconds=10.0, sample_rate=FS, seed=3)
        # opposite ring mics: the largest spacing in the array
        a, b = 1, 4
        d = np.linalg.norm(geometry.positions[a] - geometry.positions[b])
        freqs, psd_a = scipy.signal.welch(wave.samples[a], FS, nperseg=1024)
        _, psd_b = scipy.signal.welch(wave.samples[b], FS, nperseg=1024)
        _, csd = scipy.signal.csd(wave.samples[a], wave.samples[b], FS, nperseg=1024)
        coherence = np.real(csd) / np.sqrt(psd_a * psd_b)
        band = (freqs >= 100) & (freqs <= 4000)
        theory = np.sinc(2 * freqs[band] * d / SPEED_OF_SOUND)  # sin(pi x)/(pi x)
        mad = np.mean(np.abs(coherence[band] - theory))
        assert mad < 0.1

    def test_single_channel_is_white(self):
        geometry = circular_array()
        wave = isotropic_noise(geometry, seconds=10.0, sample_rate=FS, seed=4)
        freqs, psd = scipy.signal.welch(wave.samples[0], FS, nperseg=2048)
        band = (freqs >= 100) & (freqs <= 7000)
        level = 10 * np.log10(psd[band])
        assert np.max(level) - np.min(level) <= 6.0  # flat within +/- 3 dB

    def test_identical_positions_fully_coherent(self):
        geometry = ArrayGeometry(positions=[[0, 0, 0], [0, 0, 0]])
        wave = isotropic_noise(geometry, seconds=2.0, sample_rate=FS, seed=5)
        np.testing.assert_allclose(wave.samples[0], wave.samples[1], atol=1e-12)

    def test_unit_variance_per_channel(self):
        wave = isotropic_noise(circular_array(), 2.0, FS, seed=6)
        np.testing.assert_allclose(np.std(wave.samples, axis=1), 1.0, atol=1e-9)

    def test_fibonacci_sphere_is_unit_norm(self):
        dirs = fibonacci_sphere(64)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


class TestMakeMixture:
    def test_single_source_no_noise(self):
        room = _room(t60=0.2)
        spec = MixtureSpec(
            configuration="single", noise_snr_db=None, clip_seconds=3.0, seed=1
        )
        src = speech_like_source(2.5, FS, seed=10)
        mixture, truth = make_mixture(spec, room, [src])
        np.testing.assert_allclose(
            mixture.samples, truth.utterance_images[0], atol=1e-12
        )
        assert np.all(truth.channel_sources_ref[1] == 0.0)
        assert np.all(truth.noise == 0.0)

    def test_requested_snr_is_met(self):
        room = _room(t60=0.2)
        spec = MixtureSpec(
            configuration="partial_overlap",
            noise_snr_db=20.0,
            clip_seconds=4.0,
            seed=2,
        )
        sources = [speech_like_source(3.5, FS, seed=k) for k in (20, 21)]
        mixture, truth = make_mixture(spec, room, sources)
        ref = 0
        speech = mixture.samples[ref] - truth.noise[ref]
        measured = 10 * np.log10(
            np.mean(speech**2) / np.mean(truth.noise[ref] ** 2)
        )
        assert measured == pytest.approx(20.0, abs=0.1)

    def test_decomposition_identity(self):
        room = _room(t60=0.3)
        spec = MixtureSpec(
            configuration="contained_overlap",
            noise_snr_db=15.0,
            clip_seconds=4.0,
            seed=3,
        )
        sources = [speech_like_source(3.8, FS, seed=30), speech_like_source(1.5, FS, seed=31)]
        mixture, truth = make_mixture(spec, room, sources)
        reconstructed = truth.utterance_images.sum(axis=0) + truth.noise
        assert np.max(np.abs(reconstructed - mixture.samples)) < 1e-9

    def test_deterministic_under_seed(self):
        room = _room(t60=0.2)
        spec = MixtureSpec(
            configuration="sequential", noise_snr_db=25.0, clip_seconds=3.0, seed=7
        )
        sources = [speech_like_source(1.2, FS, seed=40), speech_like_source(1.0, FS, seed=41)]
        a, _ = make_mixture(spec, room, sources)
        b, _ = make_mixture(spec, room, sources)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_two_sources_required(self):
        room = _room()
        spec = MixtureSpec(configuration="partial_overlap", clip_seconds=2.0)
        with pytest.raises(ValueError):
            make_mixture(spec, room, [speech_like_source(1.0, FS)])

    def test_ground_truth_assignment_is_nonmixing(self):
        room = _room(t60=0.2)
        for config in ("sequential", "partial_overlap", "contained_overlap"):
            spec = MixtureSpec(
                configuration=config, noise_snr_db=None, clip_seconds=4.0, seed=11
            )
            sources = [
                speech_like_source(3.0, FS, seed=50),
                speech_like_source(1.5, FS, seed=51),
            ]
            _, truth = make_mixture(spec, room, sources)
            n = int(4.0 * FS)
            activity = []
            for lo, hi in truth.activity:
                act = np.zeros(n, dtype=bool)
                act[lo:hi] = True
                activity.append(act)
            assert check_nonmixing(truth.assignment, activity) == 0.0

    def test_configuration_timing(self):
        room = _room(t60=0.0)
        sources = [speech_like_source(2.0, FS, seed=60), speech_like_source(1.0, FS, seed=61)]
        spec = MixtureSpec(
            configuration="sequential", noise_snr_db=None, clip_seconds=5.0, seed=8
        )
        _, truth = make_mixture(spec, room, sources)
        (s0, e0), (s1, e1) = truth.activity
        assert s1 >= e0  # no overlap
        spec = MixtureSpec(
            configuration="contained_overlap", noise_snr_db=None, clip_seconds=5.0, seed=8
        )
        _, truth = make_mixture(spec, room, sources)
        (s0, e0), (s1, e1) = truth.activity
        assert s0 <= s1 and e1 <= e0  # fully contained
