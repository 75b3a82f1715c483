import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.io.wavfile

from unmix.cli import EXIT_DATA, EXIT_OK, main
from unmix.config import load_pipeline_config
from unmix.errors import ConfigurationError
from unmix.masks import MaskSet
from unmix.metrics import best_permutation_eval
from unmix.signal_io import MultichannelWave, read_wave, write_mask_file, write_wave

SCENE = """
room_dim = 6.0 5.0 3.0
t60 = 0.15
array_center = 3.0 2.5 1.4
source = 1.5 2.5 1.5
source = 4.0 1.5 1.5
config = sequential
snr_db = 20
duration = 4
seed = 3
"""

SCENE_NO_NOISE = """
room_dim = 6.0 5.0 3.0
t60 = 0.15
array_center = 3.0 2.5 1.4
source = 1.5 2.5 1.5
config = single
snr_db = inf
duration = 4
seed = 1
"""


def _simulate(tmp_path, text=SCENE, name="scene"):
    spec = tmp_path / "scene.cfg"
    spec.write_text(text)
    outdir = tmp_path / name
    assert main(["simulate", str(spec), str(outdir)]) == EXIT_OK
    return outdir


@pytest.fixture(scope="module")
def shared_scene(tmp_path_factory):
    """One simulated scene for the tests that only read it."""
    return _simulate(tmp_path_factory.mktemp("shared"))


def _assert_data_error(capsys, argv):
    """main exits 2 and prints exactly one `error:` line, no traceback."""
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _without(key):
    return lambda meta: json.dumps({k: v for k, v in meta.items() if k != key})


# truth.json edits that separate --truth-dir and evaluate both reject
BAD_TRUTH = {
    "not JSON": lambda meta: json.dumps(meta)[:-1],
    "a list": lambda meta: json.dumps([meta]),
    "no utterances": _without("utterances"),
    "no assignment": _without("assignment"),
    "output 2": lambda meta: json.dumps({**meta, "assignment": [0, 2]}),
    "one output for two utterances": lambda meta: json.dumps({**meta, "assignment": [0]}),
    "one segment for two utterances": lambda meta: json.dumps(
        {**meta, "activity_samples": meta["activity_samples"][:1]}
    ),
    "negative segment start": lambda meta: json.dumps(
        {**meta, "activity_samples": [[-5, 10], [0, 10]]}
    ),
}


def _truth_with(tmp_path, scene, edit):
    """A copy of `scene` whose truth.json is rewritten by `edit(meta)`."""
    truth = tmp_path / "truth"
    shutil.copytree(scene, truth)
    meta = json.loads((truth / "truth.json").read_text())
    (truth / "truth.json").write_text(edit(meta))
    return truth


class TestSimulate:
    def test_outputs_for_two_speaker_scene(self, tmp_path):
        outdir = _simulate(tmp_path)
        mixture = read_wave(outdir / "mixture.wav")
        assert mixture.channel_count == 7
        assert mixture.samples.shape[1] == 4 * 16000
        for k in (0, 1):
            assert read_wave(outdir / f"source{k}.wav").channel_count == 1
        assert (outdir / "noise_ref.wav").exists()
        meta = json.loads((outdir / "truth.json").read_text())
        assert meta["utterances"] == 2
        assert sorted(meta["assignment"]) in ([0, 0], [0, 1], [1, 1])
        assert len(meta["activity_samples"]) == 2

    def test_no_noise_scene_omits_noise_file(self, tmp_path):
        outdir = _simulate(tmp_path, SCENE_NO_NOISE)
        assert not (outdir / "noise_ref.wav").exists()
        assert (outdir / "source0.wav").exists()
        meta = json.loads((outdir / "truth.json").read_text())
        assert meta["snr_db"] is None

    def test_deterministic(self, tmp_path):
        a = _simulate(tmp_path, name="a")
        b = _simulate(tmp_path, name="b")
        assert (a / "mixture.wav").read_bytes() == (b / "mixture.wav").read_bytes()

    def test_source_outside_room_is_data_error(self, tmp_path):
        bad = SCENE.replace("source = 4.0 1.5 1.5", "source = 9.0 1.5 1.5")
        spec = tmp_path / "scene.cfg"
        spec.write_text(bad)
        assert main(["simulate", str(spec), str(tmp_path / "out")]) == EXIT_DATA

    def test_malformed_spec_is_data_error(self, tmp_path):
        spec = tmp_path / "scene.cfg"
        spec.write_text("room_dim 6 5 3\n")
        assert main(["simulate", str(spec), str(tmp_path / "out")]) == EXIT_DATA

    def test_missing_source_wav_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "scene.cfg"
        spec.write_text(SCENE)
        argv = ["simulate", str(spec), str(tmp_path / "out")]
        _assert_data_error(capsys, argv + ["--source-wav", str(tmp_path / "absent.wav")])

    @pytest.mark.parametrize("channels, rate", [(2, 16000), (1, 8000)])
    def test_source_wav_must_be_mono_16k(self, tmp_path, capsys, rng, channels, rate):
        spec = tmp_path / "scene.cfg"
        spec.write_text(SCENE)
        source = tmp_path / "source.wav"
        write_wave(MultichannelWave(rng.uniform(-0.5, 0.5, (channels, 2 * rate)), rate), source)
        argv = ["simulate", str(spec), str(tmp_path / "out")]
        _assert_data_error(capsys, argv + ["--source-wav", str(source)])

    @pytest.mark.parametrize(
        "old, new", [("duration = 4", "duration = 20"), ("config = sequential", "config = single")]
    )
    def test_scene_checks_run_at_load(self, tmp_path, capsys, old, new):
        spec = tmp_path / "scene.cfg"
        spec.write_text(SCENE.replace(old, new))
        _assert_data_error(capsys, ["simulate", str(spec), str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_output_path_that_is_a_file_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "scene.cfg"
        spec.write_text(SCENE)
        (tmp_path / "out").write_text("")
        _assert_data_error(capsys, ["simulate", str(spec), str(tmp_path / "out")])


class TestSeparate:
    def test_oracle_run_produces_streams_and_manifest(self, tmp_path):
        scene = _simulate(tmp_path)
        outdir = tmp_path / "sep"
        code = main(
            [
                "separate",
                str(scene / "mixture.wav"),
                str(outdir),
                "--truth-dir",
                str(scene),
            ]
        )
        assert code == EXIT_OK
        n = read_wave(scene / "mixture.wav").samples.shape[1]
        for i in (0, 1):
            est = read_wave(outdir / f"out{i}.wav")
            assert est.channel_count == 1
            assert est.samples.shape[1] == n
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["version"]
        assert "mask_provider = oracle" in manifest["config"]
        import hashlib

        assert (
            manifest["config_sha256"]
            == hashlib.sha256(manifest["config"].encode()).hexdigest()
        )

    def test_oracle_without_truth_dir_is_data_error(self, tmp_path):
        scene = _simulate(tmp_path)
        code = main(
            ["separate", str(scene / "mixture.wav"), str(tmp_path / "sep")]
        )
        assert code == EXIT_DATA

    def test_wrong_channel_count_is_data_error(self, tmp_path):
        scene = _simulate(tmp_path)
        code = main(
            [
                "separate",
                str(scene / "source0.wav"),
                str(tmp_path / "sep"),
                "--truth-dir",
                str(scene),
            ]
        )
        assert code == EXIT_DATA

    def test_file_provider_window_mismatch_is_data_error(self, tmp_path, rng):
        scene = _simulate(tmp_path)
        mask_path = tmp_path / "masks.umxm"
        sets = [
            MaskSet(
                speech=rng.uniform(0, 1, (2, 150, 257)),
                noise=rng.uniform(0, 1, (150, 257)),
            )
        ]  # one window; the 4 s scene needs several
        write_mask_file(mask_path, sets, hop_frames=38)
        code = main(
            [
                "separate",
                str(scene / "mixture.wav"),
                str(tmp_path / "sep"),
                "--set",
                f"mask_provider=file:{mask_path}",
            ]
        )
        assert code == EXIT_DATA

    def test_file_provider_geometry_mismatch_is_data_error(self, tmp_path, rng):
        scene = _simulate(tmp_path)
        # the 4 s scene has 249 frames: hop 38 and hop 40 both give 4 windows
        for hop, bins_, frames in ((40, 257, 150), (38, 129, 150), (38, 257, 140)):
            mask_path = tmp_path / f"masks_{hop}_{bins_}_{frames}.umxm"
            sets = [
                MaskSet(
                    speech=rng.uniform(0, 1, (2, frames, bins_)),
                    noise=rng.uniform(0, 1, (frames, bins_)),
                )
                for _ in range(4)
            ]
            write_mask_file(mask_path, sets, hop_frames=hop)
            code = main(
                [
                    "separate",
                    str(scene / "mixture.wav"),
                    str(tmp_path / "sep"),
                    "--set",
                    f"mask_provider=file:{mask_path}",
                ]
            )
            assert code == EXIT_DATA, (hop, bins_, frames)

    def test_unreadable_mask_file_is_data_error(self, tmp_path, capsys, rng, shared_scene):
        out_of_range = tmp_path / "masks.umxm"
        sets = [
            MaskSet(speech=rng.uniform(0, 1, (2, 150, 257)), noise=np.zeros((150, 257)))
            for _ in range(4)
        ]
        sets[2].speech[1, 5, 7] = 1.5
        write_mask_file(out_of_range, sets, hop_frames=38)
        for path in (out_of_range, tmp_path / "absent.umxm"):
            argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
            _assert_data_error(capsys, argv + ["--set", f"mask_provider=file:{path}"])

    def test_missing_input_is_data_error(self, tmp_path, capsys, shared_scene):
        argv = ["separate", str(tmp_path / "absent.wav"), str(tmp_path / "sep")]
        _assert_data_error(capsys, argv + ["--truth-dir", str(shared_scene)])

    def test_non_finite_input_is_data_error(self, tmp_path, capsys, shared_scene):
        mixture = read_wave(shared_scene / "mixture.wav").samples.astype(np.float32)
        mixture[3, 1000] = np.nan
        path = tmp_path / "nan.wav"
        scipy.io.wavfile.write(path, 16000, mixture.T.copy())
        argv = ["separate", str(path), str(tmp_path / "sep")]
        _assert_data_error(capsys, argv + ["--truth-dir", str(shared_scene)])

    def test_recording_shorter_than_window_is_data_error(self, tmp_path, capsys, shared_scene):
        # the 4 s scene has 249 frames
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        argv += ["--truth-dir", str(shared_scene), "--set", "window_frames=400"]
        _assert_data_error(capsys, argv)

    def test_truth_shorter_than_input_is_data_error(self, tmp_path, capsys, shared_scene):
        mixture = read_wave(shared_scene / "mixture.wav")
        doubled = tmp_path / "doubled.wav"
        samples = np.concatenate([mixture.samples, mixture.samples], axis=1)
        write_wave(MultichannelWave(samples, 16000), doubled, dtype="float32")
        argv = ["separate", str(doubled), str(tmp_path / "sep")]
        err = _assert_data_error(capsys, argv + ["--truth-dir", str(shared_scene)])
        assert "source0.wav" in err

    def test_truth_at_another_rate_is_data_error(self, tmp_path, capsys, shared_scene):
        truth = tmp_path / "truth"
        shutil.copytree(shared_scene, truth)
        noise = read_wave(truth / "noise_ref.wav")
        write_wave(MultichannelWave(noise.samples, 8000), truth / "noise_ref.wav", dtype="float32")
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        err = _assert_data_error(capsys, argv + ["--truth-dir", str(truth)])
        assert "8000 Hz" in err

    def test_set_without_equals_is_data_error(self, tmp_path):
        code = main(
            ["separate", str(tmp_path / "in.wav"), str(tmp_path / "sep"), "--set", "foo"]
        )
        assert code == EXIT_DATA

    def test_output_path_that_is_a_file_is_data_error(self, tmp_path, capsys, shared_scene):
        (tmp_path / "sep").write_text("")
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        _assert_data_error(capsys, argv + ["--truth-dir", str(shared_scene)])

    @pytest.mark.parametrize("edit", BAD_TRUTH.values(), ids=BAD_TRUTH.keys())
    def test_bad_truth_metadata_is_data_error(self, tmp_path, capsys, shared_scene, edit):
        truth = _truth_with(tmp_path, shared_scene, edit)
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        assert "truth.json" in _assert_data_error(capsys, argv + ["--truth-dir", str(truth)])

    def test_file_provider_runs(self, tmp_path):
        scene = _simulate(tmp_path)
        sep_oracle = tmp_path / "sep_oracle"
        assert (
            main(
                [
                    "separate",
                    str(scene / "mixture.wav"),
                    str(sep_oracle),
                    "--truth-dir",
                    str(scene),
                ]
            )
            == EXIT_OK
        )
        # export oracle masks to the container format, then run from the file
        from unmix.cli import _make_provider
        from unmix.stft import analyze
        from unmix.stitcher import plan_windows

        config = load_pipeline_config(None, {"truth_dir": str(scene)})
        wave = read_wave(scene / "mixture.wav")
        spec = analyze(wave, config.stft)
        provider = _make_provider(config, spec, wave, config.plan)
        windows = plan_windows(spec.frame_count, config.plan)
        sets = [provider.mask_for_window(c, s, e) for c, (s, e) in enumerate(windows)]
        mask_path = tmp_path / "masks.umxm"
        write_mask_file(mask_path, sets, hop_frames=config.plan.hop_frames)

        sep_file = tmp_path / "sep_file"
        code = main(
            [
                "separate",
                str(scene / "mixture.wav"),
                str(sep_file),
                "--set",
                f"mask_provider=file:{mask_path}",
            ]
        )
        assert code == EXIT_OK
        for i in (0, 1):
            a = read_wave(sep_oracle / f"out{i}.wav").samples
            b = read_wave(sep_file / f"out{i}.wav").samples
            # float32 container quantizes the masks; outputs stay close
            assert np.max(np.abs(a - b)) < 1e-4


class TestEvaluate:
    def test_single_scene_reports(self, tmp_path):
        scene = _simulate(tmp_path)
        sep = tmp_path / "sep"
        main(
            [
                "separate",
                str(scene / "mixture.wav"),
                str(sep),
                "--truth-dir",
                str(scene),
            ]
        )
        code = main(["evaluate", str(sep), str(scene)])
        assert code == EXIT_OK
        report = json.loads((sep / "report.json").read_text())
        assert len(report["per_channel_si_sdr"]) == 2
        assert report["nonmixing_violation_rate"] == 0.0
        aggregate = json.loads((sep / "aggregate.json").read_text())
        assert aggregate["scenes"] == 1
        assert aggregate["mean_total_si_sdr"] == pytest.approx(
            sum(report["per_channel_si_sdr"])
        )
        assert (sep / "report.txt").read_text().startswith("per_channel_si_sdr=")

    def test_multi_scene_aggregate(self, tmp_path):
        totals = []
        est_root = tmp_path / "est"
        truth_root = tmp_path / "truth"
        est_root.mkdir()
        truth_root.mkdir()
        for name, seed in (("s1", 3), ("s2", 8)):
            spec = tmp_path / f"{name}.cfg"
            spec.write_text(SCENE.replace("seed = 3", f"seed = {seed}"))
            scene = truth_root / name
            assert main(["simulate", str(spec), str(scene)]) == EXIT_OK
            sep = est_root / name
            main(
                [
                    "separate",
                    str(scene / "mixture.wav"),
                    str(sep),
                    "--truth-dir",
                    str(scene),
                ]
            )
        code = main(["evaluate", str(est_root), str(truth_root)])
        assert code == EXIT_OK
        for name in ("s1", "s2"):
            report = json.loads((est_root / name / "report.json").read_text())
            totals.append(sum(report["per_channel_si_sdr"]))
        aggregate = json.loads((est_root / "aggregate.json").read_text())
        assert aggregate["scenes"] == 2
        assert aggregate["mean_total_si_sdr"] == pytest.approx(np.mean(totals))

    def test_missing_estimates_is_data_error(self, tmp_path):
        scene = _simulate(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["evaluate", str(empty), str(scene)]) == EXIT_DATA

    def test_missing_second_stream_is_data_error(self, tmp_path, capsys, shared_scene):
        est = tmp_path / "est"
        est.mkdir()
        write_wave(MultichannelWave(np.zeros(4 * 16000), 16000), est / "out0.wav")
        _assert_data_error(capsys, ["evaluate", str(est), str(shared_scene)])

    def test_estimates_longer_than_truth_is_data_error(self, tmp_path, capsys, shared_scene):
        est = tmp_path / "est"
        est.mkdir()
        for i in (0, 1):
            write_wave(MultichannelWave(np.zeros(8 * 16000), 16000), est / f"out{i}.wav")
        _assert_data_error(capsys, ["evaluate", str(est), str(shared_scene)])

    @pytest.mark.parametrize(
        "edit",
        [*BAD_TRUTH.values(), _without("activity_samples")],
        ids=[*BAD_TRUTH.keys(), "no activity_samples"],
    )
    def test_bad_truth_metadata_is_data_error(self, tmp_path, capsys, shared_scene, edit):
        truth = _truth_with(tmp_path, shared_scene, edit)
        est = tmp_path / "est"
        est.mkdir()
        for i in (0, 1):
            write_wave(MultichannelWave(np.zeros(4 * 16000), 16000), est / f"out{i}.wav")
        assert "truth.json" in _assert_data_error(capsys, ["evaluate", str(est), str(truth)])

    @pytest.mark.parametrize(
        "channels0, samples1, rate1",
        [(1, 2 * 16000, 16000), (1, 8 * 16000, 16000), (2, 4 * 16000, 16000), (1, 4 * 16000, 8000)],
        ids=["out1 half as long", "out1 twice as long", "out0 stereo", "out1 at 8 kHz"],
    )
    def test_estimates_must_be_mono_at_one_length_and_rate(
        self, tmp_path, capsys, shared_scene, channels0, samples1, rate1
    ):
        est = tmp_path / "est"
        est.mkdir()
        write_wave(MultichannelWave(np.zeros((channels0, 4 * 16000)), 16000), est / "out0.wav")
        write_wave(MultichannelWave(np.zeros(samples1), rate1), est / "out1.wav")
        _assert_data_error(capsys, ["evaluate", str(est), str(shared_scene)])

    def test_nonexistent_estimates_dir_is_data_error(self, tmp_path):
        scene = _simulate(tmp_path)
        assert main(["evaluate", str(tmp_path / "absent"), str(scene)]) == EXIT_DATA

    def test_improvement_uses_configured_reference_channel(self, tmp_path):
        scene = _simulate(tmp_path)
        mixture = read_wave(scene / "mixture.wav").samples
        est = tmp_path / "est"
        est.mkdir()
        for i in (0, 1):
            write_wave(
                MultichannelWave(mixture[1 + i], 16000), est / f"out{i}.wav", dtype="float32"
            )
        config = tmp_path / "pipeline.cfg"
        config.write_text("reference_index = 3\n")
        assert main(["evaluate", str(est), str(scene), "--config", str(config)]) == EXIT_OK
        report = json.loads((est / "report.json").read_text())

        from unmix.cli import _load_truth

        estimates = [read_wave(est / f"out{i}.wav").samples[0] for i in (0, 1)]
        n = len(estimates[0])
        references = _load_truth(scene, n, 16000)[2]
        expected = {
            ref: best_permutation_eval(
                estimates, references, mixture_ref=mixture[ref, :n]
            ).si_sdr_improvement
            for ref in (0, 3)
        }
        assert expected[3] != pytest.approx(expected[0])
        assert report["si_sdr_improvement"] == pytest.approx(expected[3])


PINNED_CONFIG_TEXT = """\
fft_size = 512
window_size = 512
hop = 256
window_frames = 150
hop_frames = 38
mask_provider = oracle
truth_dir = /data/scene
mode = masking
dereverb = false
wpe_taps = 10
wpe_delay = 2
wpe_iterations = 3
wpe_update_interval = 1.0
wpe_context = 4.0
array_radius = 0.0425
reference_index = 0
doa_merge_threshold_deg = 15.0
"""

# values the config constructors reject; each must fail at load, before any
# input is read (hop_frames=0 would otherwise never end the window loop)
INVALID_SETTINGS = [
    "hop_frames=0",
    "hop_frames=150",
    "window_frames=0",
    "hop=300",
    "hop=0",
    "wpe_taps=0",
    "fft_size=256",
    "reference_index=9",
]


class TestPrintConfig:
    def test_text_is_pinned(self, capsys):
        assert main(["print-config", "--set", "truth_dir=/data/scene"]) == EXIT_OK
        assert capsys.readouterr().out == PINNED_CONFIG_TEXT
        assert main(["print-config"]) == EXIT_OK
        default = PINNED_CONFIG_TEXT.replace("truth_dir = /data/scene\n", "")
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("setting", INVALID_SETTINGS)
    def test_invalid_setting_is_rejected_at_load(self, tmp_path, capsys, setting):
        key, _, value = setting.partition("=")
        with pytest.raises(ConfigurationError):
            load_pipeline_config(None, {key: value})
        _assert_data_error(capsys, ["print-config", "--set", setting])
        # separate stops at the config, before it reads the (absent) input
        argv = ["separate", str(tmp_path / "absent.wav"), str(tmp_path / "sep")]
        assert "invalid configuration" in _assert_data_error(capsys, argv + ["--set", setting])

    def test_default_round_trips(self, tmp_path, capsys):
        assert main(["print-config"]) == EXIT_OK
        text = capsys.readouterr().out
        path = tmp_path / "pipeline.cfg"
        path.write_text(text)
        assert main(["print-config", "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == text

    def test_set_override_appears(self, capsys):
        assert main(["print-config", "--set", "mode=beamforming"]) == EXIT_OK
        assert "mode = beamforming" in capsys.readouterr().out

    def test_unknown_key_is_data_error(self):
        assert main(["print-config", "--set", "modes=beamforming"]) == EXIT_DATA

    def test_seed_is_not_a_pipeline_key(self, tmp_path, capsys):
        # the pipeline is deterministic: nothing would read a seed
        assert "seed" in _assert_data_error(capsys, ["print-config", "--set", "seed=5"])
        argv = ["separate", str(tmp_path / "absent.wav"), str(tmp_path / "sep")]
        assert "unknown config key" in _assert_data_error(capsys, argv + ["--set", "seed=5"])

    def test_set_without_equals_is_data_error(self, capsys):
        assert main(["print-config", "--set", "foo"]) == EXIT_DATA
        assert capsys.readouterr().err.strip().count("\n") == 0

    def test_error_is_one_line_from_the_command(self):
        # in a fresh process, so that logging writes to the real stderr
        cmd = [sys.executable, "-m", "unmix.cli", "print-config", "--set", "hop=0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_DATA
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 1
