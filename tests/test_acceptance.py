"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single summary line with
the measured values, and enforces its runtime budget. The separation-quality
thresholds are derived on a fixed seeded testbed: the oracle-IRM bound is
computed first on the same scenes, and the pipeline must land within 2 dB
of it.
"""

import itertools
import json
import time

import numpy as np
import pytest
import scipy.signal

from unmix.beamformer import mvdr_weights
from unmix.cli import main as cli_main
from unmix.dereverb import wpe_block
from unmix.masks import (
    ChannelSwappingProvider,
    MaskSet,
    OracleMaskProvider,
    estimate_doa,
    merge_heads_if_same_doa,
    oracle_masks,
    steering_vectors,
)
from unmix.metrics import best_permutation_eval, check_nonmixing, si_sdr
from unmix.pit import pit_loss, ssn_loss
from unmix.signal_io import (
    SPEED_OF_SOUND,
    MultichannelWave,
    circular_array,
    read_wave,
)
from unmix.simulator import (
    MixtureSpec,
    RoomSpec,
    image_method_rirs,
    isotropic_noise,
    make_mixture,
    speech_like_source,
)
from unmix.stft import Spectrogram, StftConfig, analyze, synthesize
from unmix.stitcher import (
    StitchState,
    WindowPlan,
    align_and_emit,
    plan_windows,
    run_pipeline,
)

from conftest import plane_wave_spectrogram

FS = 16000
PLAN = WindowPlan(150, 38)
ROOM_DIM = np.array([6.0, 5.0, 3.0])
ARRAY_CENTER = np.array([3.0, 2.5, 1.4])


def _testbed_scene(scene_seed, t60, snr_db, duration=4.0):
    """One seeded two-speaker scene plus everything oracles need."""
    rng = np.random.default_rng(scene_seed)
    positions = rng.uniform([0.7, 0.7, 0.8], [5.3, 4.3, 2.2], (2, 3))
    room = RoomSpec(
        dimensions=ROOM_DIM,
        t60=t60,
        source_positions=positions,
        array_center=ARRAY_CENTER,
    )
    sources = [
        speech_like_source(duration * 0.8, FS, seed=scene_seed * 100 + 1),
        speech_like_source(duration * 0.6, FS, seed=scene_seed * 100 + 2),
    ]
    mix_spec = MixtureSpec(
        configuration="partial_overlap",
        noise_snr_db=snr_db,
        clip_seconds=duration,
        seed=scene_seed,
    )
    mixture, truth = make_mixture(mix_spec, room, sources)
    spec = analyze(mixture)
    refs = [
        analyze(MultichannelWave(truth.channel_sources_ref[i][np.newaxis], FS))
        for i in range(2)
    ]
    noise = analyze(MultichannelWave(truth.noise[0][np.newaxis], FS))
    return {
        "mixture": mixture,
        "truth": truth,
        "t60": t60,
        "spec": spec,
        "refs": refs,
        "noise": noise,
        "provider": OracleMaskProvider(spec, refs, noise),
    }


@pytest.fixture(scope="session")
def testbed():
    """20 fixed scenes: 10 at T60 = 0.2 s and 10 at 0.5 s, SNR 15 dB."""
    scenes = []
    for k in range(20):
        t60 = 0.2 if k < 10 else 0.5
        scenes.append(_testbed_scene(scene_seed=k + 1, t60=t60, snr_db=15.0))
    return scenes


def _improvement(estimates, scene):
    refs = [scene["truth"].channel_sources_ref[i] for i in range(2)]
    mixture_ref = scene["mixture"].samples[0]
    n = min(len(estimates[0]), len(refs[0]))
    report = best_permutation_eval(
        [e[:n] for e in estimates], [r[:n] for r in refs], mixture_ref=mixture_ref[:n]
    )
    return report


def _synthesize_pair(streams):
    return [synthesize(s).samples[0] for s in streams]


@pytest.fixture(scope="session")
def pipeline_results(testbed):
    """Oracle-IRM bound plus masking/beamforming runs on every scene."""
    geometry = circular_array()
    results = []
    started = time.monotonic()
    for scene in testbed:
        irm = oracle_masks(scene["spec"], scene["refs"], scene["noise"])
        bound_streams = [
            Spectrogram(
                (irm.speech[i] * scene["spec"].data[0])[np.newaxis],
                scene["spec"].config,
                FS,
            )
            for i in range(2)
        ]
        entry = {"scene": scene}
        entry["irm"] = _improvement(_synthesize_pair(bound_streams), scene)
        masked = run_pipeline(
            scene["spec"], scene["provider"], PLAN, "masking", geometry
        )
        entry["masking_streams"] = _synthesize_pair(masked)
        entry["masking"] = _improvement(entry["masking_streams"], scene)
        beamformed = run_pipeline(
            scene["spec"], scene["provider"], PLAN, "beamforming", geometry
        )
        entry["beamforming"] = _improvement(_synthesize_pair(beamformed), scene)
        results.append(entry)
    return {"entries": results, "seconds": time.monotonic() - started}


class TestCriterion1Stft:
    def test_perfect_reconstruction(self, rng):
        started = time.monotonic()
        config = StftConfig()
        x = rng.standard_normal((7, 10 * FS))
        out = synthesize(analyze(MultichannelWave(x, FS), config)).samples
        n = out.shape[1]
        interior = slice(config.window_size, n - config.window_size)
        err = np.max(np.abs(out[:, interior] - x[:, interior])) / np.max(np.abs(x))
        elapsed = time.monotonic() - started
        assert err < 1e-6
        assert elapsed < 5.0
        print(f"\ncriterion 1 (STFT reconstruction): PASS "
              f"rel_err={err:.2e} runtime={elapsed:.2f}s")


class TestCriterion2Mvdr:
    def test_rank_one_oracle_and_invariances(self, rng):
        started = time.monotonic()
        geometry = circular_array()
        freqs = np.linspace(100, 8000, 257)
        d = steering_vectors(geometry, freqs, [33.0])[0]  # (F, J)
        sigma2 = rng.uniform(0.5, 2.0, 257)
        phi = sigma2[:, None, None] * d[:, :, None] * np.conj(d[:, None, :])
        a = rng.standard_normal((257, 7, 7)) + 1j * rng.standard_normal((257, 7, 7))
        psi = a @ np.conj(np.swapaxes(a, 1, 2)) + 0.1 * np.eye(7)

        w = mvdr_weights(phi, psi, reference_index=0)
        response = np.einsum("fj,fj->f", np.conj(w), d)
        distortion = float(np.max(np.abs(response - d[:, 0])))
        assert distortion < 1e-6

        closed_err = 0.0
        for f in range(257):
            loaded = psi[f] + 1e-6 * np.trace(psi[f]).real / 7 * np.eye(7)
            psi_inv_d = np.linalg.solve(loaded, d[f])
            closed = psi_inv_d / (np.conj(d[f]) @ psi_inv_d) * np.conj(d[f, 0])
            closed_err = max(closed_err, float(np.max(np.abs(w[f] - closed))))
        assert closed_err < 1e-5

        w_phi = mvdr_weights(7.3 * phi, psi, 0)
        w_psi = mvdr_weights(phi, 0.2 * psi, 0)
        scale_err = max(
            float(np.max(np.abs(w_phi - w))), float(np.max(np.abs(w_psi - w)))
        )
        assert scale_err < 1e-8
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        print(f"\ncriterion 2 (MVDR correctness): PASS distortion={distortion:.2e} "
              f"oracle_err={closed_err:.2e} scale_err={scale_err:.2e} "
              f"runtime={elapsed:.2f}s")


class TestCriterion3PitOracle:
    def test_thousand_instances_match_brute_force(self):
        started = time.monotonic()
        perms = ((0, 1), (1, 0))
        for trial in range(1000):
            rng = np.random.default_rng(trial)
            t, f = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            masks = rng.uniform(0, 1, (2, t, f))
            noise_mask = rng.uniform(0, 1, (t, f))
            mix = rng.uniform(0, 2, (t, f))
            srcs = rng.uniform(0, 2, (2, t, f))
            noise_mag = rng.uniform(0, 2, (t, f))

            # independent scalar-loop brute force
            losses = []
            for perm in perms:
                total = 0.0
                for i in range(2):
                    for tt in range(t):
                        for ff in range(f):
                            total += (
                                masks[i, tt, ff] * mix[tt, ff]
                                - srcs[perm[i], tt, ff]
                            ) ** 2
                losses.append(total)
            best = perms[0] if losses[0] <= losses[1] else perms[1]

            result = pit_loss(masks, mix, srcs)
            assert result.permutation == best
            assert result.loss == pytest.approx(min(losses), rel=1e-12)

            noise_term = 0.0
            for tt in range(t):
                for ff in range(f):
                    noise_term += (
                        noise_mask[tt, ff] * mix[tt, ff] - noise_mag[tt, ff]
                    ) ** 2
            mset = MaskSet(speech=masks, noise=noise_mask)
            ssn = ssn_loss(mset, mix, srcs, noise_mag)
            assert ssn.permutation == best
            assert ssn.loss == pytest.approx(min(losses) + noise_term, rel=1e-12)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        print(f"\ncriterion 3 (PIT/SSN oracle): PASS instances=1000 "
              f"runtime={elapsed:.2f}s")


class TestCriterion4Stitching:
    def _thirty_second_scene(self):
        # 30 s two-speaker reverberant scene rendered directly: the mixture
        # spec's clip length caps at 10 s, but stitching needs a long timeline
        rng = np.random.default_rng(77)
        room = RoomSpec(
            dimensions=ROOM_DIM,
            t60=0.3,
            source_positions=[[1.5, 2.5, 1.5], [4.5, 1.2, 1.6]],
            array_center=ARRAY_CENTER,
        )
        geometry = circular_array()
        mics = geometry.positions + ARRAY_CENTER
        n = 30 * FS
        images = []
        refs = []
        for k, (start, stop) in enumerate(((0, 18 * FS), (12 * FS, 30 * FS))):
            src = np.zeros(n)
            seg = speech_like_source((stop - start) / FS, FS, seed=700 + k)
            src[start : start + len(seg)] = seg
            rirs = image_method_rirs(room, room.source_positions[k], mics, FS)
            image = np.stack(
                [scipy.signal.fftconvolve(src, h)[:n] for h in rirs]
            )
            images.append(image)
            refs.append(image[0])
        mixture = MultichannelWave(images[0] + images[1], FS)
        spec = analyze(mixture)
        ref_specs = [
            analyze(MultichannelWave(r[np.newaxis], FS)) for r in refs
        ]
        zero = Spectrogram(
            np.zeros((1, spec.frame_count, spec.bins)), spec.config, FS
        )
        return spec, ref_specs, zero

    def test_swapped_provider_bit_identical(self):
        started = time.monotonic()
        spec, refs, zero = self._thirty_second_scene()
        geometry = circular_array()
        plain = run_pipeline(
            spec, OracleMaskProvider(spec, refs, zero), PLAN, "masking", geometry
        )
        swapping = ChannelSwappingProvider(
            OracleMaskProvider(spec, refs, zero), seed=1
        )
        swapped = run_pipeline(spec, swapping, PLAN, "masking", geometry)
        assert swapping.swaps[0] is False  # window 0 unswapped for seed 1
        assert any(swapping.swaps.values())  # later windows actually swap
        for i in range(2):
            np.testing.assert_array_equal(swapped[i].data, plain[i].data)

        # emitted frames partition the timeline exactly
        provider = OracleMaskProvider(spec, refs, zero)
        state = StitchState()
        coverage = np.zeros(spec.frame_count, dtype=int)
        for c, (s, e) in enumerate(plan_windows(spec.frame_count, PLAN)):
            mset = provider.mask_for_window(c, s, e)
            ref_mag = np.abs(spec.data[0, s:e])
            state, emit, _ = align_and_emit(state, mset, ref_mag, (s, e))
            coverage[emit[0] : emit[1]] += 1
        assert np.all(coverage == 1)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        print(f"\ncriterion 4 (stitching consistency): PASS "
              f"windows={len(swapping.swaps)} "
              f"swapped={sum(swapping.swaps.values())} runtime={elapsed:.2f}s")


class TestCriterion5Nonmixing:
    def test_ground_truth_and_pipeline_assignments(self, pipeline_results):
        worst = 0.0
        for entry in pipeline_results["entries"]:
            truth = entry["scene"]["truth"]
            n = truth.utterance_images_ref.shape[1]
            activity = []
            for lo, hi in truth.activity:
                act = np.zeros(n, dtype=bool)
                act[lo:hi] = True
                activity.append(act)
            assert check_nonmixing(truth.assignment, activity) == 0.0

            # derive the pipeline's own utterance-to-channel assignment from
            # which output stream carries each utterance
            estimates = entry["masking_streams"]
            assignment = []
            for k in range(len(truth.activity)):
                lo, hi = truth.activity[k]
                hi = min(hi, len(estimates[0]))
                ref = truth.utterance_images_ref[k, lo:hi]
                scores = [
                    abs(float(np.dot(est[lo:hi], ref))) for est in estimates
                ]
                assignment.append(int(np.argmax(scores)))
            worst = max(worst, check_nonmixing(tuple(assignment), activity))
        assert worst <= 0.01
        print(f"\ncriterion 5 (nonmixing contract): PASS "
              f"worst_violation_rate={worst:.4f}")


class TestCriterion6SeparationQuality:
    def test_masking_within_2db_of_irm_bound_and_beamforming_at_least_masking(
        self, pipeline_results
    ):
        entries = pipeline_results["entries"]
        irm = np.mean([e["irm"].si_sdr_improvement for e in entries])
        masking = np.mean([e["masking"].si_sdr_improvement for e in entries])
        reverberant = [e for e in entries if e["scene"]["t60"] >= 0.5]
        mask_rev = np.mean(
            [e["masking"].total_si_sdr() for e in reverberant]
        )
        beam_rev = np.mean(
            [e["beamforming"].total_si_sdr() for e in reverberant]
        )
        elapsed = pipeline_results["seconds"]
        assert masking >= irm - 2.0
        assert beam_rev >= mask_rev
        assert elapsed < 300.0
        print(f"\ncriterion 6 (separation quality): PASS "
              f"irm_bound={irm:.2f}dB masking={masking:.2f}dB "
              f"beam_rev_total={beam_rev:.2f}dB mask_rev_total={mask_rev:.2f}dB "
              f"runtime={elapsed:.1f}s")


class TestCriterion7SsnAblation:
    def test_ssn_interference_beats_complement(self):
        geometry = circular_array()
        ssn_scores, complement_scores = [], []
        for seed in range(30, 36):
            scene = _testbed_scene(scene_seed=seed, t60=0.5, snr_db=10.0)
            for mode_name, scores in (
                ("ssn", ssn_scores),
                ("complement", complement_scores),
            ):
                streams = run_pipeline(
                    scene["spec"],
                    scene["provider"],
                    PLAN,
                    "beamforming",
                    geometry,
                    interference_mode=mode_name,
                )
                report = _improvement(_synthesize_pair(streams), scene)
                scores.append(report.total_si_sdr())
        ssn_mean = float(np.mean(ssn_scores))
        complement_mean = float(np.mean(complement_scores))
        assert ssn_mean >= complement_mean
        print(f"\ncriterion 7 (SSN ablation): PASS ssn={ssn_mean:.2f}dB "
              f"complement={complement_mean:.2f}dB")


class TestCriterion8Wpe:
    def test_drr_improves_and_objective_non_increasing(self):
        started = time.monotonic()
        gains = []
        for seed in (41, 42):
            rng = np.random.default_rng(seed)
            room = RoomSpec(
                dimensions=ROOM_DIM,
                t60=0.5,
                source_positions=rng.uniform(
                    [0.7, 0.7, 0.8], [5.3, 4.3, 2.2], (1, 3)
                ),
                array_center=ARRAY_CENTER,
            )
            src = speech_like_source(3.5, FS, seed=seed)
            mixture, truth = make_mixture(
                MixtureSpec(
                    configuration="single", noise_snr_db=None, clip_seconds=4.0,
                    seed=seed,
                ),
                room,
                [src],
            )
            direct = truth.direct_images_ref[0]
            residuals = []
            out = wpe_block(analyze(mixture), collect_residuals=residuals)
            y = synthesize(out).samples[0]
            n = len(y)
            drr_in = si_sdr(mixture.samples[0, :n], direct[:n])
            drr_out = si_sdr(y, direct[:n])
            gains.append(drr_out - drr_in)
            for pre, post in residuals:
                assert post <= pre * (1 + 1e-9)
        elapsed = time.monotonic() - started
        assert min(gains) > 0.0
        assert elapsed < 60.0
        print(f"\ncriterion 8 (WPE effectiveness): PASS "
              f"drr_gains_db={[round(g, 2) for g in gains]} "
              f"runtime={elapsed:.1f}s")


class TestCriterion9IsotropicNoise:
    def test_pairwise_coherence_matches_theory(self):
        geometry = circular_array()
        wave = isotropic_noise(geometry, seconds=10.0, sample_rate=FS, seed=9)
        worst = 0.0
        for a, b in itertools.combinations(range(7), 2):
            d = np.linalg.norm(geometry.positions[a] - geometry.positions[b])
            freqs, psd_a = scipy.signal.welch(wave.samples[a], FS, nperseg=1024)
            _, psd_b = scipy.signal.welch(wave.samples[b], FS, nperseg=1024)
            _, csd = scipy.signal.csd(
                wave.samples[a], wave.samples[b], FS, nperseg=1024
            )
            coherence = np.real(csd) / np.sqrt(psd_a * psd_b)
            band = (freqs >= 100) & (freqs <= 4000)
            theory = np.sinc(2 * freqs[band] * d / SPEED_OF_SOUND)
            worst = max(worst, float(np.mean(np.abs(coherence[band] - theory))))
        assert worst < 0.1
        print(f"\ncriterion 9 (isotropic noise): PASS worst_pair_mad={worst:.3f}")


class TestCriterion10DoaMerge:
    def test_split_single_source_merges_two_sources_do_not(self, rng):
        geometry = circular_array()
        single = plane_wave_spectrogram(geometry, 40.0, frames=150, seed=21)
        t, f = single.frame_count, single.bins
        split = rng.uniform(0.2, 0.8, (t, f))
        mset = MaskSet(
            speech=np.stack([split, 1.0 - split]), noise=np.zeros((t, f))
        )
        merged = merge_heads_if_same_doa(mset, single, geometry)
        head_mass = merged.speech.sum(axis=(1, 2))
        assert np.min(head_mass) == 0.0  # less-significant head zeroed
        assert np.max(head_mass) > 0.0
        doa = estimate_doa(merged.speech[int(np.argmax(head_mass))], single, geometry)
        assert abs((doa - 40.0 + 180) % 360 - 180) < 5.0

        two = plane_wave_spectrogram(geometry, 10.0, frames=150, seed=22)
        other = plane_wave_spectrogram(geometry, 80.0, frames=150, seed=23)
        mixture = Spectrogram(two.data + other.data, two.config, FS)
        mags = np.stack([np.abs(two.data[0]), np.abs(other.data[0])])
        irm = mags / np.maximum(mags.sum(axis=0), 1e-10)
        mset2 = MaskSet(speech=irm, noise=np.zeros((t, f)))
        kept = merge_heads_if_same_doa(mset2, mixture, geometry)
        np.testing.assert_array_equal(kept.speech, mset2.speech)
        print("\ncriterion 10 (DOA merge): PASS split-source merged, "
              "70-degree pair kept")


class TestCriterion11Determinism:
    def test_cmd_separate_bit_identical(self, tmp_path):
        scene_text = (
            "room_dim = 6.0 5.0 3.0\n"
            "t60 = 0.3\n"
            "array_center = 3.0 2.5 1.4\n"
            "source = 1.5 2.5 1.5\n"
            "source = 4.0 1.5 1.5\n"
            "config = partial_overlap\n"
            "snr_db = 15\n"
            "duration = 4\n"
            "seed = 12\n"
        )
        spec_path = tmp_path / "scene.cfg"
        spec_path.write_text(scene_text)
        scene_dir = tmp_path / "scene"
        assert cli_main(["simulate", str(spec_path), str(scene_dir)]) == 0
        outputs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            code = cli_main(
                [
                    "separate",
                    str(scene_dir / "mixture.wav"),
                    str(outdir),
                    "--truth-dir",
                    str(scene_dir),
                    "--set",
                    "doa_merge_threshold_deg=20",
                ]
            )
            assert code == 0
            outputs.append(
                [(outdir / f"out{i}.wav").read_bytes() for i in (0, 1)]
            )
        assert outputs[0] == outputs[1]
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert "doa_merge_threshold_deg = 20.0" in manifest["config"]
        print("\ncriterion 11 (determinism): PASS bit-identical WAV pairs")
