import numpy as np
import pytest

from unmix.config import (
    PipelineConfig,
    load_pipeline_config,
    load_scene_spec,
    parse_kv_file,
    pipeline_config_text,
)
from unmix.errors import ConfigurationError, FormatError
from unmix.signal_io import circular_array


def _write(tmp_path, text, name="file.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseKvFile:
    def test_basic_pairs_and_comments(self, tmp_path):
        path = _write(
            tmp_path,
            "# a comment\n"
            "alpha = 1\n"
            "\n"
            "beta = two words  # trailing comment\n",
        )
        assert parse_kv_file(path) == {"alpha": "1", "beta": "two words"}

    def test_repeated_key_collects_list(self, tmp_path):
        path = _write(tmp_path, "source = 1 2 3\nsource = 4 5 6\n")
        assert parse_kv_file(path) == {"source": ["1 2 3", "4 5 6"]}

    def test_missing_equals_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "good = 1\nbad line\n")
        with pytest.raises(FormatError, match=r":2:"):
            parse_kv_file(path)

    def test_empty_value_rejected(self, tmp_path):
        path = _write(tmp_path, "key =\n")
        with pytest.raises(FormatError, match=r":1:"):
            parse_kv_file(path)

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="absent.cfg"):
            parse_kv_file(tmp_path / "absent.cfg")


SCENE_TEXT = """
room_dim = 6.0 5.0 3.0
t60 = 0.25
array_center = 3.0 2.5 1.4
source = 1.5 2.5 1.5
source = 4.0 1.5 1.5
config = partial_overlap
snr_db = 15
duration = 4
seed = 3
"""


class TestSceneSpec:
    def test_full_parse(self, tmp_path):
        room, mix = load_scene_spec(_write(tmp_path, SCENE_TEXT))
        np.testing.assert_array_equal(room.dimensions, [6.0, 5.0, 3.0])
        assert room.t60 == 0.25
        np.testing.assert_array_equal(room.array_center, [3.0, 2.5, 1.4])
        np.testing.assert_array_equal(room.source_positions, [[1.5, 2.5, 1.5], [4.0, 1.5, 1.5]])
        assert mix.configuration == "partial_overlap"
        assert mix.noise_snr_db == 15.0
        assert mix.clip_seconds == 4.0
        assert mix.seed == 3
        assert mix.utterance_gains_db == (0.0, 0.0)

    def test_defaults(self, tmp_path):
        room, mix = load_scene_spec(
            _write(
                tmp_path,
                "room_dim = 4 4 3\narray_center = 2 2 1\nsource = 1 1 1\n",
            )
        )
        assert mix.configuration == "single"
        assert mix.utterance_gains_db == (0.0,)
        assert mix.noise_snr_db == 20.0
        assert mix.clip_seconds == 10.0
        assert mix.seed == 0
        assert room.t60 == 0.3
        np.testing.assert_array_equal(room.array_geometry.positions, circular_array().positions)

    def test_missing_required_field(self, tmp_path):
        path = _write(tmp_path, "room_dim = 4 4 3\nsource = 1 1 1\n")
        with pytest.raises(ConfigurationError, match="array_center"):
            load_scene_spec(path)

    def test_unknown_configuration(self, tmp_path):
        path = _write(
            tmp_path,
            "room_dim = 4 4 3\narray_center = 2 2 1\nsource = 1 1 1\n"
            "config = sideways\n",
        )
        with pytest.raises(ConfigurationError, match="sideways"):
            load_scene_spec(path)

    def test_non_numeric_value(self, tmp_path):
        path = _write(
            tmp_path,
            "room_dim = big\narray_center = 2 2 1\nsource = 1 1 1\n",
        )
        with pytest.raises(ConfigurationError):
            load_scene_spec(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("duration = 4", "duration = 20", "clip_seconds"),
            ("config = partial_overlap", "config = single", "takes 1 source"),
            ("seed = 3", "seed = 3\ngains_db = 0 -3 -6", "gains_db"),
            ("seed = 3", "seed = 3\ngains_db = 0 inf", "gains_db must be finite"),
            ("t60 = 0.25", "t60 = -1", "t60"),
            ("t60 = 0.25", "t60 = nan", "finite"),
            ("t60 = 0.25", "t60 = inf", "finite"),
            ("room_dim = 6.0 5.0 3.0", "room_dim = 6.0 5.0 nan", "finite"),
            ("seed = 3", "seed = 3\narray_radius = inf", "array_radius must be finite"),
            ("snr_db = 15", "snr_db = nan", "finite"),
            ("snr_db = 15", "snr_db = -inf", "noise_snr_db"),
            ("seed = 3", "seed = -1", "seed"),
            ("duration = 4", "duration = 4\nduration = 3", "more than once"),
            ("snr_db = 15", "snr = 5", "file.cfg: unknown scene key 'snr'"),
            ("seed = 3", "seed = 3\nsources = 2", "file.cfg: unknown scene key 'sources'"),
        ],
    )
    def test_scene_checks_run_at_load(self, tmp_path, old, new, message):
        path = _write(tmp_path, SCENE_TEXT.replace(old, new))
        with pytest.raises(ConfigurationError, match=message):
            load_scene_spec(path)

    def test_room_construction(self, tmp_path):
        room, _ = load_scene_spec(_write(tmp_path, SCENE_TEXT + "array_radius = 0.05\n"))
        assert room.array_geometry.channel_count == 7
        np.testing.assert_array_equal(
            room.array_geometry.positions, circular_array(radius=0.05).positions
        )
        np.testing.assert_array_equal(room.mic_positions()[0], [3.0, 2.5, 1.4])


class TestPipelineConfig:
    def test_defaults(self):
        config = load_pipeline_config()
        assert config.stft.fft_size == 512
        assert config.plan.window_frames == 150
        assert config.plan.hop_frames == 38
        assert config.mode == "masking"
        assert config.mask_provider == "oracle"
        assert not config.dereverb

    def test_file_and_overrides(self, tmp_path):
        path = _write(tmp_path, "mode = beamforming\nwpe_taps = 8\n")
        config = load_pipeline_config(path, {"dereverb": "true"})
        assert config.mode == "beamforming"
        assert config.wpe.taps == 8
        assert config.dereverb is True

    def test_unknown_key(self, tmp_path):
        path = _write(tmp_path, "fft_sizes = 256\n")
        with pytest.raises(ConfigurationError, match="fft_sizes"):
            load_pipeline_config(path)

    def test_bad_int(self, tmp_path):
        path = _write(tmp_path, "hop = fast\n")
        with pytest.raises(ConfigurationError, match="hop"):
            load_pipeline_config(path)

    def test_repeated_key(self, tmp_path):
        path = _write(tmp_path, "hop = 256\nhop = 128\n")
        with pytest.raises(ConfigurationError, match="hop"):
            load_pipeline_config(path)

    @pytest.mark.parametrize(
        "text, value",
        [("1", True), ("TRUE", True), ("On", True), ("yes", True)]
        + [("0", False), ("False", False), ("OFF", False), ("no", False)],
    )
    def test_boolean_spellings(self, text, value):
        assert load_pipeline_config(None, {"dereverb": text}).dereverb is value

    def test_bad_boolean(self):
        with pytest.raises(ConfigurationError, match="dereverb"):
            load_pipeline_config(None, {"dereverb": "ture"})

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            load_pipeline_config(None, {"mode": "surround"})

    def test_bad_provider(self):
        with pytest.raises(ConfigurationError, match="mask_provider"):
            load_pipeline_config(None, {"mask_provider": "network"})

    def test_round_trip_through_text(self, tmp_path):
        original = load_pipeline_config(
            None,
            {
                "mode": "beamforming",
                "dereverb": "true",
                "wpe_context": "3.5",
                "reference_index": "0",
                "mask_provider": "oracle",
            },
        )
        original.truth_dir = str(tmp_path / "truth")
        path = _write(tmp_path, pipeline_config_text(original))
        reloaded = load_pipeline_config(path)
        assert pipeline_config_text(reloaded) == pipeline_config_text(original)

    def test_geometry_reflects_radius_and_reference(self):
        config = PipelineConfig(array_radius=0.1)
        geo = config.geometry()
        ring = np.linalg.norm(geo.positions[1:, :2], axis=1)
        np.testing.assert_allclose(ring, 0.1, atol=1e-12)
        assert geo.reference_index == 0
