import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unmix.cli
import unmix.dereverb
import unmix.parallel
from unmix.cli import EXIT_DATA, EXIT_INVARIANT, EXIT_OK, main
from unmix.config import load_pipeline_config
from unmix.errors import ConfigurationError, FormatError, ShapeError, UnsupportedFormatError
from unmix.masks import FileMaskProvider, MaskSet, OracleMaskProvider, oracle_masks
from unmix.metrics import best_permutation_eval, solo_ranges
from unmix.signal_io import (
    MultichannelWave,
    WaveReader,
    read_wave,
    write_mask_file,
    write_wave,
)
from unmix.stft import StftConfig, StftFrames, analyze, synthesize
from unmix.stitcher import run_pipeline

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
    "zero array radius": lambda meta: json.dumps({**meta, "array_radius": 0}),
    "NaN array radius": lambda meta: json.dumps({**meta, "array_radius": float("nan")}),
    "array radius as text": lambda meta: json.dumps({**meta, "array_radius": "0.0425"}),
}


def _truth_with_stereo_source(tmp_path, scene):
    """A copy of `scene` whose source0.wav holds two channels."""
    truth = tmp_path / "truth"
    shutil.copytree(scene, truth)
    source = read_wave(truth / "source0.wav").samples
    stereo = MultichannelWave(np.vstack([source, source]), 16000)
    write_wave(stereo, truth / "source0.wav", dtype="float32")
    return truth


MEMORY_PROBE = """
import sys
from unmix.cli import main
code = main(sys.argv[1:])
hwm = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(code, int(hwm.split()[1]) / 1024.0)
"""


def _separate_peak_mb(tmp_path, seconds, rng, provider, settings=(), mode="masking"):
    """Peak RSS (MB) of `separate` in `mode`, in a fresh process, on
    `seconds` of 7-channel noise, with a random mask container ("file") or
    a truth directory of mono noise tracks ("oracle"), and the given
    KEY=VALUE config settings."""
    from unmix.stitcher import WindowPlan, plan_windows

    rate = 16000
    mixture = tmp_path / f"mixture{seconds}.wav"
    samples = 0.1 * rng.standard_normal((seconds * rate, 7), dtype=np.float32)
    scipy.io.wavfile.write(mixture, rate, samples)
    del samples
    argv = ["separate", str(mixture), str(tmp_path / f"sep_{mode}_{provider}{seconds}")]
    for setting in (f"mode={mode}", *settings):
        argv += ["--set", setting]
    if provider == "file":
        plan, stft = WindowPlan(), StftConfig()
        windows = len(plan_windows(stft.frame_count(seconds * rate), plan))
        shapes = ((2, plan.window_frames, stft.bins), (plan.window_frames, stft.bins))
        sets = [MaskSet(*(rng.uniform(0, 1, shape) for shape in shapes)) for _ in range(3)]
        masks = tmp_path / f"masks{seconds}.umxm"
        write_mask_file(masks, [sets[c % 3] for c in range(windows)], plan.hop_frames)
        argv += ["--set", f"mask_provider=file:{masks}"]
    else:
        truth = tmp_path / f"truth{seconds}"
        truth.mkdir(exist_ok=True)
        (truth / "truth.json").write_text(json.dumps({"utterances": 2, "assignment": [0, 1]}))
        for name in ("source0", "source1", "noise_ref"):
            track = 0.1 * rng.standard_normal(seconds * rate, dtype=np.float32)
            scipy.io.wavfile.write(truth / f"{name}.wav", rate, track)
        argv += ["--truth-dir", str(truth)]
    probe = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, *argv],
        capture_output=True, text=True, check=True, env=_env_with_src(),
    )
    code, peak_mb = probe.stdout.split()
    assert int(code) == EXIT_OK, probe.stderr
    return float(peak_mb)


def _evaluate_peak_mb(tmp_path, seconds, rng):
    """Peak RSS (MB) of `evaluate`, in a fresh process, against a truth
    directory of `seconds` of 7-channel float32 noise, two mono noise tracks
    and two utterances, of estimates that are those tracks (exit 0)."""
    rate, n = 16000, seconds * 16000
    truth, est = tmp_path / f"truth{seconds}", tmp_path / f"est{seconds}"
    truth.mkdir()
    est.mkdir()
    segments = [[0, 2 * n // 3], [n // 3, n]]
    meta = {"utterances": 2, "assignment": [0, 1], "activity_samples": segments}
    (truth / "truth.json").write_text(json.dumps(meta))
    mixture = 0.1 * rng.standard_normal((n, 7), dtype=np.float32)
    scipy.io.wavfile.write(truth / "mixture.wav", rate, mixture)
    del mixture
    for k in (0, 1):
        track = 0.1 * rng.standard_normal(n, dtype=np.float32)
        for path in (truth / f"source{k}.wav", est / f"out{k}.wav"):
            scipy.io.wavfile.write(path, rate, track)
    probe = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, "evaluate", str(est), str(truth)],
        capture_output=True, text=True, check=True, env=_env_with_src(),
    )
    code, peak_mb = probe.stdout.split()[-2:]
    assert int(code) == EXIT_OK, probe.stderr
    return float(peak_mb)


def _env_with_src():
    """The environment of a child interpreter that imports this unmix."""
    src = str(Path(unmix.cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _riff(*chunks, form=b"WAVE"):
    body = form + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(tag=1, channels=7, bits=16, block_align=14):
    fields = (16, tag, channels, 16000, 16000 * block_align, block_align, bits)
    return b"fmt " + struct.pack("<IHHIIHH", *fields)


def _data(size, declared=None):
    return b"data" + struct.pack("<I", size if declared is None else declared) + bytes(size)


# WAV inputs that separate rejects at open: (file bytes, error, text of the error)
BAD_WAVS = {
    "data past the end": (_riff(_fmt(), _data(1400, 14000)), FormatError, "past the end"),
    "8-bit PCM": (
        _riff(_fmt(bits=8, block_align=7), _data(700)), UnsupportedFormatError, "8-bit PCM"
    ),
    "32-bit PCM": (
        _riff(_fmt(bits=32, block_align=28), _data(2800)), UnsupportedFormatError, "32-bit PCM"
    ),
    "A-law": (
        _riff(_fmt(tag=6, bits=8, block_align=7), _data(700)),
        UnsupportedFormatError,
        "format tag 6",
    ),
    "not WAVE": (_riff(_fmt(), _data(1400), form=b"AVI "), FormatError, "not WAVE"),
    "no fmt": (_riff(_data(1400)), FormatError, "no fmt chunk"),
    "data before fmt": (_riff(_data(1400), _fmt()), FormatError, "no fmt chunk"),
    "zero channels": (_riff(_fmt(channels=0), _data(1400)), FormatError, "0 channels"),
}


def _random_mask_file(tmp_path, rng):
    """A mask container of random masks for the 4 windows of the default
    plan over the 4 s scene's 249 frames."""
    path = tmp_path / "masks.umxm"
    sets = [
        MaskSet(speech=rng.uniform(0, 1, (2, 150, 257)), noise=rng.uniform(0, 1, (150, 257)))
        for _ in range(4)
    ]
    write_mask_file(path, sets, hop_frames=38)
    return path


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
        assert meta["array_radius"] == pytest.approx(0.0425, rel=1e-12)

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

    def test_source_outside_room_is_data_error(self, tmp_path, capsys):
        bad = SCENE.replace("source = 4.0 1.5 1.5", "source = 9.0 1.5 1.5")
        spec = tmp_path / "scene.cfg"
        spec.write_text(bad)
        err = _assert_data_error(capsys, ["simulate", str(spec), str(tmp_path / "out")])
        assert err.startswith(f"error: {spec}:"), err

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
        "old, new",
        [
            ("duration = 4", "duration = 20"),
            ("config = sequential", "config = single"),
            ("t60 = 0.15", "t60 = nan"),
            ("seed = 3", "seed = 3\narray_radius = inf"),
            ("seed = 3", "seed = 3\narray_radius = 0"),
            ("seed = 3", "seed = 3\narray_radius = -0.05"),
            ("seed = 3", "seed = -1"),
            ("seed = 3", "seed = 3\ngains_db = 0 inf"),
            ("snr_db = 20", "snr = 5"),
        ],
    )
    def test_scene_checks_run_at_load(self, tmp_path, capsys, old, new):
        spec = tmp_path / "scene.cfg"
        spec.write_text(SCENE.replace(old, new))
        _assert_data_error(capsys, ["simulate", str(spec), str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_more_source_wavs_than_sources_is_data_error(self, tmp_path, capsys, rng):
        spec = tmp_path / "scene.cfg"
        spec.write_text(SCENE_NO_NOISE)
        argv = ["simulate", str(spec), str(tmp_path / "out")]
        for k in range(3):
            source = tmp_path / f"source{k}.wav"
            write_wave(MultichannelWave(rng.uniform(-0.5, 0.5, (1, 16000)), 16000), source)
            argv += ["--source-wav", str(source)]
        err = _assert_data_error(capsys, argv)
        assert "3 --source-wav" in err and "1 source" in err, err
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

    @pytest.mark.parametrize("mode", ["masking", "beamforming"])
    def test_output_edges_are_not_amplified(self, tmp_path, mode):
        # clipped full-scale noise and random masks: no frame is consistent,
        # so the overlap-add's gain at the first and last window_size samples
        # shows in the output peaks
        from unmix.stitcher import WindowPlan, plan_windows

        rng, rate, stft, plan = np.random.default_rng(5), 16000, StftConfig(), WindowPlan()
        samples = np.clip(0.5 * rng.standard_normal((6 * rate, 7)), -1.0, 1.0)
        scipy.io.wavfile.write(tmp_path / "noise.wav", rate, samples.astype(np.float32))
        windows = len(plan_windows(stft.frame_count(6 * rate), plan))
        shapes = ((2, plan.window_frames, stft.bins), (plan.window_frames, stft.bins))
        sets = [MaskSet(*(rng.uniform(0, 1, shape) for shape in shapes)) for _ in range(windows)]
        write_mask_file(tmp_path / "masks.umxm", sets, plan.hop_frames)
        argv = ["separate", str(tmp_path / "noise.wav"), str(tmp_path / "sep")]
        argv += ["--set", f"mask_provider=file:{tmp_path / 'masks.umxm'}", "--set", f"mode={mode}"]
        assert main(argv) == EXIT_OK
        size = stft.window_size
        for i in (0, 1):
            out = np.abs(read_wave(tmp_path / "sep" / f"out{i}.wav").samples[0])
            edges = np.concatenate([out[:size], out[-size:]])
            assert edges.max() <= np.sqrt(2.0) * out[size:-size].max(), (i, edges.max())

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

    def test_masking_from_file_checks_every_channel(self, tmp_path, capsys, rng, shared_scene):
        # masking without dereverb transforms the reference channel alone; the
        # input's channel count and every channel's samples are still checked
        masks = _random_mask_file(tmp_path, rng)
        mixture = read_wave(shared_scene / "mixture.wav").samples.astype(np.float32)
        mixture[3, 1000] = np.nan
        scipy.io.wavfile.write(tmp_path / "nan.wav", 16000, mixture.T.copy())
        mixture[3, 1000] = 0.0
        scipy.io.wavfile.write(tmp_path / "six.wav", 16000, mixture[:6].T.copy())
        for name in ("nan.wav", "six.wav"):
            argv = ["separate", str(tmp_path / name), str(tmp_path / "sep")]
            _assert_data_error(capsys, argv + ["--set", f"mask_provider=file:{masks}"])

    def test_masking_with_another_reference_equals_whole_input_pipeline(
        self, tmp_path, rng, shared_scene
    ):
        masks = _random_mask_file(tmp_path, rng)
        settings = {"reference_index": "3", "mask_provider": f"file:{masks}"}
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        for key, value in settings.items():
            argv += ["--set", f"{key}={value}"]
        assert main(argv) == EXIT_OK

        config = load_pipeline_config(None, settings)
        wave = read_wave(shared_scene / "mixture.wav")
        streams = run_pipeline(
            analyze(wave, config.stft), FileMaskProvider(masks), config.plan, "masking",
            config.geometry(),
        )
        for i, stream in enumerate(streams):
            samples = np.zeros((1, wave.num_samples))
            whole = synthesize(stream).samples
            samples[:, : whole.shape[1]] = whole
            expected = tmp_path / f"expected{i}.wav"
            write_wave(MultichannelWave(samples, wave.sample_rate), expected, dtype="float32")
            assert (tmp_path / "sep" / f"out{i}.wav").read_bytes() == expected.read_bytes()

    def test_masking_with_dereverb_gives_wpe_every_channel(
        self, tmp_path, shared_scene, monkeypatch
    ):
        channel_counts = []
        wpe_block = unmix.dereverb.wpe_block

        def counting(spec, *args, **kwargs):
            channel_counts.append(spec.channel_count)
            return wpe_block(spec, *args, **kwargs)

        monkeypatch.setattr(unmix.dereverb, "wpe_block", counting)
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        argv += ["--truth-dir", str(shared_scene), "--set", "dereverb=true"]
        for setting in ("wpe_iterations=1", "wpe_context=1", "wpe_taps=2"):
            argv += ["--set", setting]
        assert main(argv) == EXIT_OK
        assert channel_counts and set(channel_counts) == {7}

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

    def test_unusable_output_path_exits_before_any_work(
        self, tmp_path, capsys, shared_scene, monkeypatch
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        monkeypatch.setattr(unmix.cli, "separate_windows", unreachable)
        monkeypatch.setattr(unmix.dereverb, "wpe_block", unreachable)
        (tmp_path / "sep").write_text("")
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        argv += ["--truth-dir", str(shared_scene), "--set", "dereverb=true"]
        _assert_data_error(capsys, argv)

    def test_bad_truth_exits_before_wpe(self, tmp_path, capsys, shared_scene, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("WPE ran before the mask provider was built")

        monkeypatch.setattr(unmix.cli, "WpeFrames", unreachable)
        truth = tmp_path / "truth"
        shutil.copytree(shared_scene, truth)
        (truth / "source0.wav").unlink()
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        argv += ["--truth-dir", str(truth), "--set", "dereverb=true"]
        assert "source0.wav" in _assert_data_error(capsys, argv)

    def test_wpe_blocks_shorter_than_delay_plus_taps_exit_before_any_output(
        self, tmp_path, capsys, shared_scene
    ):
        # 0.1 s is 6 frames of the 4 s scene; delay + taps is 12
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        argv += ["--truth-dir", str(shared_scene), "--set", "dereverb=true"]
        err = _assert_data_error(capsys, argv + ["--set", "wpe_update_interval=0.1"])
        assert "wpe_update_interval" in err and "6 frames" in err and "12" in err, err
        assert not (tmp_path / "sep").exists()

    def test_wpe_lengths_past_the_recording_act_as_the_recording(self, tmp_path, shared_scene):
        def separate(setting):
            outdir = tmp_path / setting
            argv = ["separate", str(shared_scene / "mixture.wav"), str(outdir)]
            argv += ["--truth-dir", str(shared_scene), "--set", "dereverb=true"]
            assert main(argv + ["--set", setting]) == EXIT_OK
            return [(outdir / f"out{i}.wav").read_bytes() for i in (0, 1)]

        whole = separate("wpe_context=1000")
        assert separate("wpe_context=1e308") == whole
        assert separate("wpe_update_interval=1e308") == whole

    def test_dereverb_output_does_not_depend_on_worker_count(self, tmp_path, shared_scene):
        def separate(name):
            outdir = tmp_path / name
            argv = ["separate", str(shared_scene / "mixture.wav"), str(outdir)]
            argv += ["--truth-dir", str(shared_scene)]
            argv += ["--set", "mode=beamforming", "--set", "dereverb=true"]
            assert main(argv) == EXIT_OK
            return [(outdir / f"out{i}.wav").read_bytes() for i in (0, 1)]

        with mock.patch.object(unmix.parallel, "worker_count", return_value=1):
            one = separate("one")
        assert separate("all") == one

    def test_beamforming_output_does_not_depend_on_worker_count(self, tmp_path, shared_scene):
        def separate(name, workers):
            outdir = tmp_path / name
            argv = ["separate", str(shared_scene / "mixture.wav"), str(outdir)]
            argv += ["--truth-dir", str(shared_scene), "--set", "mode=beamforming"]
            with mock.patch.object(unmix.parallel, "worker_count", return_value=workers):
                assert main(argv) == EXIT_OK
            return [(outdir / f"out{i}.wav").read_bytes() for i in (0, 1)]

        one = separate("one", 1)
        assert separate("all", unmix.parallel.worker_count()) == one
        assert separate("more_than_cpus", 3) == one

    def test_failed_run_leaves_no_partial_output(self, tmp_path, shared_scene, monkeypatch):
        outdir = tmp_path / "sep"
        outdir.mkdir()
        (outdir / "out0.wav").write_bytes(b"an earlier run")
        separate_windows = unmix.cli.separate_windows

        def failing(*args, **kwargs):
            windows = separate_windows(*args, **kwargs)
            yield next(windows)
            yield next(windows)
            raise ShapeError("failure after two windows")

        monkeypatch.setattr(unmix.cli, "separate_windows", failing)
        argv = ["separate", str(shared_scene / "mixture.wav"), str(outdir)]
        assert main(argv + ["--truth-dir", str(shared_scene)]) == EXIT_INVARIANT
        assert [p.name for p in outdir.iterdir()] == ["out0.wav"]
        assert (outdir / "out0.wav").read_bytes() == b"an earlier run"

    def test_peak_memory_does_not_grow_with_the_recording(self, tmp_path, rng):
        # a small WPE keeps the dereverberated runs to seconds
        dereverb = ("dereverb=true", "wpe_iterations=1", "wpe_context=1", "wpe_taps=2")
        for mode, provider, settings in (
            ("masking", "file", ()),
            ("masking", "oracle", ()),
            ("masking", "file", dereverb),
            ("beamforming", "oracle", ()),
        ):
            short = _separate_peak_mb(tmp_path, 20, rng, provider, settings, mode)
            long = _separate_peak_mb(tmp_path, 80, rng, provider, settings, mode)
            assert abs(long - short) < 15.0, (mode, provider, settings, short, long)

    @pytest.mark.parametrize("edit", BAD_TRUTH.values(), ids=BAD_TRUTH.keys())
    def test_bad_truth_metadata_is_data_error(self, tmp_path, capsys, shared_scene, edit):
        truth = _truth_with(tmp_path, shared_scene, edit)
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        assert "truth.json" in _assert_data_error(capsys, argv + ["--truth-dir", str(truth)])

    def test_truth_rendered_at_another_array_radius_is_data_error(self, tmp_path, capsys):
        scene = _simulate(tmp_path, SCENE + "array_radius = 0.05\n")
        radius = json.loads((scene / "truth.json").read_text())["array_radius"]
        assert radius == pytest.approx(0.05, rel=1e-12)
        argv = ["separate", str(scene / "mixture.wav"), str(tmp_path / "sep")]
        err = _assert_data_error(capsys, argv + ["--truth-dir", str(scene)])
        assert "array_radius" in err, err
        assert not (tmp_path / "sep").exists()
        assert main(argv + ["--truth-dir", str(scene), "--set", "array_radius=0.05"]) == EXIT_OK

    def test_multichannel_truth_track_is_data_error(self, tmp_path, capsys, shared_scene):
        truth = _truth_with_stereo_source(tmp_path, shared_scene)
        argv = ["separate", str(shared_scene / "mixture.wav"), str(tmp_path / "sep")]
        assert "source0.wav" in _assert_data_error(capsys, argv + ["--truth-dir", str(truth)])

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


@pytest.mark.parametrize("content, error, text", BAD_WAVS.values(), ids=BAD_WAVS.keys())
def test_bad_wav_input_is_data_error(tmp_path, capsys, content, error, text):
    path = tmp_path / "bad.wav"
    path.write_bytes(content)
    with pytest.raises(error, match=text):
        WaveReader(path)
    assert text in _assert_data_error(capsys, ["separate", str(path), str(tmp_path / "sep")])


def test_separate_runs_without_scipy():
    script = Path(__file__).with_name("separate_without_scipy.py")
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=_env_with_src(), timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "command, name",
    [("separate", "out0.wav"), ("separate", "manifest.json"), ("simulate", "mixture.wav")],
)
def test_output_name_taken_by_a_directory_is_data_error(
    tmp_path, capsys, shared_scene, command, name
):
    outdir = tmp_path / "out"
    (outdir / name).mkdir(parents=True)
    if command == "separate":
        argv = ["separate", str(shared_scene / "mixture.wav"), str(outdir)]
        argv += ["--truth-dir", str(shared_scene)]
    else:
        spec = tmp_path / "scene.cfg"
        spec.write_text(SCENE)
        argv = ["simulate", str(spec), str(outdir)]
    assert name in _assert_data_error(capsys, argv)
    assert not [p.name for p in outdir.iterdir() if p.name.endswith(".partial")]


FRAMES = 20  # STFT frames of the property test's recordings


class TestOracleTruth:
    @settings(max_examples=25, deadline=None)
    @given(
        assignment=st.lists(st.integers(0, 1), max_size=3),
        with_noise=st.booleans(),
        extra=st.integers(0, 300),
        windows=st.lists(
            st.tuples(st.integers(0, FRAMES), st.integers(0, FRAMES)), min_size=1, max_size=6
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(assignment=[0, 0], with_noise=True, extra=0, windows=[(0, FRAMES)], seed=0)
    @example(assignment=[1, 0, 1], with_noise=False, extra=7, windows=[(3, 9)], seed=1)
    def test_windowed_masks_equal_whole_oracle_masks(
        self, assignment, with_noise, extra, windows, seed
    ):
        """Masks from StftFrames over the summed truth tracks, window by
        window, equal oracle_masks over whole Spectrograms of the sums."""
        rng = np.random.default_rng(seed)
        config, rate = StftConfig(), 16000
        n = (FRAMES - 1) * config.hop + config.window_size
        tracks = rng.uniform(-0.5, 0.5, (len(assignment) + 1, n + extra)).astype(np.float32)
        mixture = MultichannelWave(rng.uniform(-0.5, 0.5, n), rate)
        with tempfile.TemporaryDirectory() as tmp:
            truth = Path(tmp)
            meta = {"utterances": len(assignment), "assignment": assignment}
            (truth / "truth.json").write_text(json.dumps(meta))
            for k in range(len(assignment)):
                scipy.io.wavfile.write(truth / f"source{k}.wav", rate, tracks[k])
            if with_noise:
                scipy.io.wavfile.write(truth / "noise_ref.wav", rate, tracks[-1])
            _, streams, noise = unmix.cli._load_truth(truth, n, rate)
            provider = OracleMaskProvider(
                StftFrames(mixture, config),
                [StftFrames(stream, config) for stream in streams],
                StftFrames(noise, config),
            )
            # in-order ranges, as the window loop asks for them
            ranges = sorted((min(a, b), max(a, b)) for a, b in windows)
            windowed = [provider.mask_for_window(c, a, b) for c, (a, b) in enumerate(ranges)]

        sums = np.zeros((2, n))
        for k, ch in enumerate(assignment):
            sums[ch] += tracks[k, :n]
        noise_ref = tracks[-1, :n].astype(np.float64) if with_noise else np.zeros(n)
        spec_of = lambda x: analyze(MultichannelWave(x, rate), config)
        whole = oracle_masks(
            spec_of(mixture.samples), [spec_of(x) for x in sums], spec_of(noise_ref)
        )
        for (a, b), mset in zip(ranges, windowed):
            np.testing.assert_array_equal(mset.speech, whole.speech[:, a:b])
            np.testing.assert_array_equal(mset.noise, whole.noise[a:b])


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

    def test_a_failing_scene_is_named_and_no_scene_is_reported(
        self, tmp_path, capsys, shared_scene
    ):
        est, truth = tmp_path / "est", tmp_path / "truth"
        truth.mkdir()
        for name in ("a", "b"):
            (truth / name).symlink_to(shared_scene)
        argv = ["separate", str(shared_scene / "mixture.wav"), str(est / "a")]
        assert main(argv + ["--truth-dir", str(shared_scene)]) == EXIT_OK
        (est / "b").mkdir()
        for i in (0, 1):
            write_wave(MultichannelWave(np.ones(100), 16000), est / "b" / f"out{i}.wav")
        capsys.readouterr()
        err = _assert_data_error(capsys, ["evaluate", str(est), str(truth)])
        assert str(est / "b") in err and "512 samples" in err, err
        written = [p.name for p in est.rglob("*") if p.suffix in (".txt", ".json")]
        assert written == ["manifest.json"]

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

    def test_multichannel_truth_track_is_data_error(self, tmp_path, capsys, shared_scene):
        truth = _truth_with_stereo_source(tmp_path, shared_scene)
        est = tmp_path / "est"
        est.mkdir()
        for i in (0, 1):
            write_wave(MultichannelWave(np.zeros(4 * 16000), 16000), est / f"out{i}.wav")
        assert "source0.wav" in _assert_data_error(capsys, ["evaluate", str(est), str(truth)])

    def test_one_utterance_on_output_one(self, tmp_path):
        scene = _simulate(tmp_path, SCENE_NO_NOISE)
        meta = json.loads((scene / "truth.json").read_text())
        assert meta["assignment"] == [0]
        sep = tmp_path / "sep"
        argv = ["separate", str(scene / "mixture.wav"), str(sep), "--truth-dir", str(scene)]
        assert main(argv) == EXIT_OK
        (scene / "truth.json").write_text(json.dumps({**meta, "assignment": [1]}))
        assert main(["evaluate", str(sep), str(scene)]) == EXIT_OK
        report = json.loads((sep / "report.json").read_text())
        assert report["nonmixing_violation_rate"] == 0.0

    def test_one_talker_scene_writes_valid_json(self, tmp_path):
        scene = _simulate(tmp_path, SCENE_NO_NOISE)
        sep = tmp_path / "sep"
        argv = ["separate", str(scene / "mixture.wav"), str(sep), "--truth-dir", str(scene)]
        assert main(argv) == EXIT_OK
        assert main(["evaluate", str(sep), str(scene)]) == EXIT_OK

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((sep / "report.json").read_text(), parse_constant=reject)
        aggregate = json.loads((sep / "aggregate.json").read_text(), parse_constant=reject)
        scored = [v for v in report["per_channel_si_sdr"] if v is not None]
        assert len(scored) == 1  # the second reference is silent
        assert np.isfinite(aggregate["mean_total_si_sdr"])
        assert aggregate["mean_total_si_sdr"] == pytest.approx(scored[0])

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

    @pytest.mark.parametrize("samples", [100, 300])
    def test_estimates_shorter_than_one_frame_are_data_error(
        self, tmp_path, capsys, shared_scene, samples
    ):
        est = tmp_path / "est"
        est.mkdir()
        for i in (0, 1):
            write_wave(MultichannelWave(np.ones(samples), 16000), est / f"out{i}.wav")
        err = _assert_data_error(capsys, ["evaluate", str(est), str(shared_scene)])
        assert "512 samples" in err, err
        assert sorted(p.name for p in est.iterdir()) == ["out0.wav", "out1.wav"]

    def test_nonexistent_estimates_dir_is_data_error(self, tmp_path):
        scene = _simulate(tmp_path)
        assert main(["evaluate", str(tmp_path / "absent"), str(scene)]) == EXIT_DATA

    def test_truth_mixture_without_reference_channel_is_data_error(
        self, tmp_path, capsys, shared_scene
    ):
        truth = tmp_path / "truth"
        shutil.copytree(shared_scene, truth)
        mixture = read_wave(truth / "mixture.wav").samples
        write_wave(MultichannelWave(mixture[:2], 16000), truth / "mixture.wav", dtype="float32")
        est = tmp_path / "est"
        est.mkdir()
        for i in (0, 1):
            write_wave(MultichannelWave(mixture[i], 16000), est / f"out{i}.wav", dtype="float32")
        config = tmp_path / "pipeline.cfg"
        config.write_text("reference_index = 3\n")
        argv = ["evaluate", str(est), str(truth), "--config", str(config)]
        assert "mixture.wav has 2 channels" in _assert_data_error(capsys, argv)

    def test_peak_memory_does_not_grow_with_the_recording(self, tmp_path, rng):
        short = _evaluate_peak_mb(tmp_path, 20, rng)
        long = _evaluate_peak_mb(tmp_path, 80, rng)
        assert abs(long - short) < 15.0, (short, long)

    def test_report_does_not_depend_on_the_block_size(self, tmp_path, shared_scene, monkeypatch):
        # 1001-sample blocks: the signals and the activity segments straddle
        # block edges, and the last block is a short one; both estimates
        # carry both talkers, so the non-mixing rate is not 0 (exit 3)
        mixture = read_wave(shared_scene / "mixture.wav").samples
        est = tmp_path / "est"
        est.mkdir()
        for i in (0, 1):
            estimate = mixture[0] + (0.5 - i) * mixture[3 + i]
            write_wave(MultichannelWave(estimate, 16000), est / f"out{i}.wav", dtype="float32")
        reports = []
        for block in (unmix.cli._EVAL_BLOCK, 1001):
            monkeypatch.setattr(unmix.cli, "_EVAL_BLOCK", block)
            assert main(["evaluate", str(est), str(shared_scene)]) == EXIT_INVARIANT
            reports.append(json.loads((est / "report.json").read_text()))
        default, small = reports
        assert mixture.shape[1] % 1001 and default["leakage_db"] is not None
        assert default["nonmixing_violation_rate"] > 0.0
        assert small["permutation_used"] == default["permutation_used"]
        assert small["nonmixing_violation_rate"] == default["nonmixing_violation_rate"]
        for key in ("per_channel_si_sdr", "si_sdr_improvement", "leakage_db"):
            assert np.allclose(small[key], default[key], rtol=0.0, atol=1e-9), key

    def test_leakage_follows_the_permutation_found(self, tmp_path, shared_scene):
        sep, swapped = tmp_path / "sep", tmp_path / "swapped"
        argv = ["separate", str(shared_scene / "mixture.wav"), str(sep)]
        assert main(argv + ["--truth-dir", str(shared_scene)]) == EXIT_OK
        swapped.mkdir()
        for i in (0, 1):
            shutil.copy(sep / f"out{i}.wav", swapped / f"out{1 - i}.wav")
        reports = []
        for est in (sep, swapped):
            assert main(["evaluate", str(est), str(shared_scene)]) == EXIT_OK
            reports.append(json.loads((est / "report.json").read_text()))
        assert [r["permutation_used"] for r in reports] == [[0, 1], [1, 0]]
        assert reports[0]["leakage_db"] < -10.0
        assert reports[1]["leakage_db"] == reports[0]["leakage_db"]

    def test_nonmixing_rate_reads_the_estimates(self, tmp_path, shared_scene):
        # the rate assigns each utterance to the output that carries most of
        # it: the truth streams pass, two copies of the mixture do not
        mixture_ref = read_wave(shared_scene / "mixture.wav").samples[0]
        n = len(mixture_ref)
        streams = [s.read(0, n)[0] for s in unmix.cli._load_truth(shared_scene, n, 16000)[1]]
        rates = []
        for name, estimates, code in (
            ("truth", streams, EXIT_OK),
            ("mixture", [mixture_ref, mixture_ref], EXIT_INVARIANT),
        ):
            est = tmp_path / name
            est.mkdir()
            for i in (0, 1):
                write_wave(MultichannelWave(estimates[i], 16000), est / f"out{i}.wav")
            assert main(["evaluate", str(est), str(shared_scene)]) == code
            rates.append(json.loads((est / "report.json").read_text())["nonmixing_violation_rate"])
        assert rates[0] == 0.0 and rates[1] > 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 1)), max_size=6
        )
    )
    def test_solo_ranges_match_per_sample_activity(self, utterances):
        active = np.zeros((2, 41), dtype=bool)
        for lo, hi, ch in utterances:
            active[ch, lo:hi] = True
        solo = np.zeros((2, 41), dtype=bool)
        for c, lo, hi in solo_ranges(utterances):
            assert lo < hi and not solo[:, lo:hi].any()
            solo[c, lo:hi] = True
        np.testing.assert_array_equal(solo, active & ~active[::-1])

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
        # mixture channels carry both talkers, so the non-mixing rate is not 0
        argv = ["evaluate", str(est), str(scene), "--config", str(config)]
        assert main(argv) == EXIT_INVARIANT
        report = json.loads((est / "report.json").read_text())

        from unmix.cli import _load_truth

        estimates = [read_wave(est / f"out{i}.wav").samples[0] for i in (0, 1)]
        n = len(estimates[0])
        references = [stream.read(0, n)[0] for stream in _load_truth(scene, n, 16000)[1]]
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
    "wpe_update_interval=nan",
    "wpe_update_interval=inf",
    "wpe_update_interval=-1",
    "wpe_context=nan",
    "wpe_context=inf",
    "wpe_context=-5",
    "array_radius=nan",
    "array_radius=0",
    "doa_merge_threshold_deg=nan",
    "doa_merge_threshold_deg=181",
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

    @pytest.mark.parametrize("level, code", [("verbose", EXIT_DATA), ("debug", EXIT_OK)])
    def test_log_level_comes_from_the_environment(self, level, code):
        # in a fresh process: logging is configured once per process
        cmd = [sys.executable, "-m", "unmix.cli", "print-config"]
        env = {**_env_with_src(), "UNMIX_LOG": level}
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == code, proc.stderr
        if code != EXIT_OK:
            assert proc.stderr.startswith("error: UNMIX_LOG=") and proc.stderr.count("\n") == 1


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 1
