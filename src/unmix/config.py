"""Declarative key-value configuration files for scenes and pipeline runs."""

from dataclasses import dataclass, field

from .dereverb import WpeConfig
from .errors import ConfigurationError, FormatError, GeometryError
from .masks import DOA_MERGE_THRESHOLD_DEG
from .signal_io import ARRAY_RADIUS, ArrayGeometry, circular_array
from .stft import StftConfig
from .stitcher import WindowPlan
from .simulator import MixtureSpec, RoomSpec


def parse_kv_file(path):
    """Parse a `key = value` text file; '#' starts a comment.

    Repeated keys collect into a list. Raises FormatError with the offending
    line number on malformed input.
    """
    try:
        fh = open(path)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    values = {}
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not key or not val:
                raise FormatError(f"{path}:{lineno}: empty key or value")
            if key in values:
                existing = values[key]
                if not isinstance(existing, list):
                    values[key] = [existing]
                values[key].append(val)
            else:
                values[key] = val
    return values


def _floats(text):
    return [float(v) for v in text.split()]


# the keys a scene file may give
SCENE_KEYS = (
    "room_dim", "t60", "array_center", "source", "array_radius",
    "config", "gains_db", "snr_db", "duration", "seed",
)


def load_scene_spec(path):
    """The (RoomSpec, MixtureSpec) of a scene file. The specs check their own
    values; this checks the keys and the counts that `config` sets."""
    values = parse_kv_file(path)
    for key, value in values.items():
        if key not in SCENE_KEYS:
            raise ConfigurationError(f"{path}: unknown scene key {key!r}")
        if isinstance(value, list) and key != "source":
            raise ConfigurationError(f"{path}: key {key!r} is given more than once")
    try:
        sources = values["source"]
        if not isinstance(sources, list):
            sources = [sources]
        gains = values.get("gains_db")
        mix = MixtureSpec(
            configuration=values.get("config", "single"),
            utterance_gains_db=tuple(_floats(gains)) if gains else (0.0,) * len(sources),
            noise_snr_db=float(values.get("snr_db", "20")),
            clip_seconds=float(values.get("duration", "10")),
            seed=int(values.get("seed", "0")),
        )
        count = 1 if mix.configuration == "single" else 2
        if len(sources) != count:
            raise ValueError(
                f"{mix.configuration!r} configuration takes {count} source(s), got {len(sources)}"
            )
        if len(mix.utterance_gains_db) != count:
            raise ValueError(
                f"gains_db needs {count} value(s), got {len(mix.utterance_gains_db)}"
            )
        room = RoomSpec(
            dimensions=_floats(values["room_dim"]),
            t60=float(values.get("t60", "0.3")),
            source_positions=[_floats(s) for s in sources],
            array_center=_floats(values["array_center"]),
            array_geometry=circular_array(radius=float(values.get("array_radius", ARRAY_RADIUS))),
        )
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing required field {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except GeometryError as exc:
        raise GeometryError(f"{path}: {exc}") from exc
    return room, mix


@dataclass
class PipelineConfig:
    """Everything a separation run needs; every field has a config-file key."""

    stft: StftConfig = field(default_factory=StftConfig)
    plan: WindowPlan = field(default_factory=WindowPlan)
    mask_provider: str = "oracle"  # "oracle" or "file:<path>"
    truth_dir: str = None  # required by the oracle provider
    mode: str = "masking"  # or "beamforming"
    dereverb: bool = False
    wpe: WpeConfig = field(default_factory=WpeConfig)
    array_radius: float = ARRAY_RADIUS
    reference_index: int = 0
    doa_merge_threshold_deg: float = DOA_MERGE_THRESHOLD_DEG

    def __post_init__(self):
        if self.mode not in ("masking", "beamforming"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mask_provider != "oracle" and not self.mask_provider.startswith("file:"):
            raise ValueError(
                f"mask_provider must be 'oracle' or 'file:<path>', got {self.mask_provider!r}"
            )
        if not 0 <= self.doa_merge_threshold_deg <= 180:  # NaN fails too
            raise ValueError(
                "doa_merge_threshold_deg must be in [0, 180], "
                f"got {self.doa_merge_threshold_deg}"
            )
        self.geometry()  # circular_array checks array_radius, ArrayGeometry reference_index

    def geometry(self):
        geo = circular_array(radius=self.array_radius)
        return ArrayGeometry(
            positions=geo.positions, reference_index=self.reference_index
        )


def _bool(text):
    value = text.lower()
    if value in ("1", "true", "on", "yes"):
        return True
    if value in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"expected true/false, 1/0, on/off or yes/no, got {text!r}")


SECTIONS = {"stft": StftConfig, "plan": WindowPlan, "wpe": WpeConfig}

# key -> (section, attribute, conversion); also the rendering order.
PIPELINE_KEYS = {
    "fft_size": ("stft", "fft_size", int),
    "window_size": ("stft", "window_size", int),
    "hop": ("stft", "hop", int),
    "window_frames": ("plan", "window_frames", int),
    "hop_frames": ("plan", "hop_frames", int),
    "mask_provider": (None, "mask_provider", str),
    "truth_dir": (None, "truth_dir", str),
    "mode": (None, "mode", str),
    "dereverb": (None, "dereverb", _bool),
    "wpe_taps": ("wpe", "taps", int),
    "wpe_delay": ("wpe", "delay", int),
    "wpe_iterations": ("wpe", "iterations", int),
    "wpe_update_interval": ("wpe", "update_interval", float),
    "wpe_context": ("wpe", "context", float),
    "array_radius": (None, "array_radius", float),
    "reference_index": (None, "reference_index", int),
    "doa_merge_threshold_deg": (None, "doa_merge_threshold_deg", float),
}


def load_pipeline_config(path=None, overrides=None):
    """Build a checked PipelineConfig from a key-value file plus override pairs."""
    values = parse_kv_file(path) if path else {}
    values.update(overrides or {})
    fields = {None: {}, **{section: {} for section in SECTIONS}}
    for key, raw in values.items():
        if key not in PIPELINE_KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        if isinstance(raw, list):
            raise ConfigurationError(f"config key {key!r} is given more than once")
        section, attr, conv = PIPELINE_KEYS[key]
        try:
            fields[section][attr] = conv(raw)
        except ValueError as exc:
            raise ConfigurationError(f"config key {key!r}: {exc}") from exc
    try:
        nested = {section: cls(**fields[section]) for section, cls in SECTIONS.items()}
        return PipelineConfig(**nested, **fields[None])
    except ValueError as exc:
        raise ConfigurationError(f"invalid configuration: {exc}") from exc


def pipeline_config_text(config):
    """Render a PipelineConfig back to its key-value file form; None is left out."""
    lines = []
    for key, (section, attr, _) in PIPELINE_KEYS.items():
        value = getattr(config if section is None else getattr(config, section), attr)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
