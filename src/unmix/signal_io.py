"""Multichannel audio and mask-container I/O plus canonical in-memory buffers."""

import logging
import struct
from dataclasses import dataclass

import numpy as np
import scipy.io.wavfile

from .errors import FormatError, RangeError, UnsupportedFormatError

log = logging.getLogger(__name__)

SPEED_OF_SOUND = 343.0  # m/s

MASK_MAGIC = b"UMXM"
MASK_VERSION = 1


@dataclass
class MultichannelWave:
    """Time-domain multichannel signal.

    samples: (channels, time) float array, nominally in [-1, 1).
    """

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def channel_count(self):
        return self.samples.shape[0]


@dataclass
class ArrayGeometry:
    """Microphone positions in meters and the reference channel index."""

    positions: np.ndarray  # (J, 3)
    reference_index: int = 0

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        if self.positions.shape[1] != 3:
            raise ValueError("positions must be (J, 3)")
        if not 0 <= self.reference_index < len(self.positions):
            raise ValueError("reference_index out of range")

    @property
    def channel_count(self):
        return len(self.positions)


def circular_array(channels=7, radius=0.0425, center_mic=True):
    """Build a planar circular array, optionally with a center microphone.

    Default is 7 channels: one center mic (the reference, index 0) plus six
    mics evenly spaced on a 4.25 cm-radius circle.
    """
    n_ring = channels - 1 if center_mic else channels
    angles = 2.0 * np.pi * np.arange(n_ring) / n_ring
    ring = np.stack(
        [radius * np.cos(angles), radius * np.sin(angles), np.zeros(n_ring)], axis=1
    )
    if center_mic:
        positions = np.vstack([np.zeros(3), ring])
    else:
        positions = ring
    return ArrayGeometry(positions=positions, reference_index=0)


def read_wave(path):
    """Read a PCM16 or IEEE-float WAV file into a MultichannelWave.

    Samples are normalized to [-1, 1).
    """
    try:
        rate, data = scipy.io.wavfile.read(path)
    except (OSError, ValueError, struct.error, EOFError) as exc:
        raise FormatError(f"cannot read WAV file {path}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        if not np.all(np.isfinite(data)):
            raise FormatError(f"non-finite samples in WAV file {path}")
        samples = data.astype(np.float64)
    else:
        raise UnsupportedFormatError(
            f"unsupported WAV sample format {data.dtype} in {path}"
        )
    if samples.ndim == 1:
        samples = samples[np.newaxis, :]
    else:
        samples = samples.T  # wavfile gives (time, channels)
    return MultichannelWave(samples=samples, sample_rate=int(rate))


def write_wave(wave, path, dtype="int16"):
    """Write a MultichannelWave as PCM16 (default) or float32 WAV.

    Values beyond [-1, 1) saturate, with a logged warning.
    """
    samples = wave.samples
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    if dtype == "int16":
        peak = np.max(np.abs(samples), initial=0.0)
        if peak > 1.0:
            log.warning("clipping %s: peak amplitude %.3f exceeds full scale", path, peak)
        scaled = np.clip(samples, -1.0, 32767.0 / 32768.0)
        data = np.round(scaled * 32768.0).astype(np.int16)
    elif dtype == "float32":
        data = samples.astype(np.float32)
    else:
        raise ValueError(f"unsupported output dtype {dtype}")
    scipy.io.wavfile.write(path, wave.sample_rate, data.T.copy())


_MASK_HEADER = struct.Struct("<4sIIIIII")  # magic, version, heads, frames, bins, windows, hop


def write_mask_file(path, mask_sets, hop_frames):
    """Write a sequence of per-window MaskSets in the binary mask container.

    Layout: magic "UMXM", version u32, header {heads, frames_per_window, bins,
    window_count, hop_frames} u32, then row-major float32 data per window,
    little-endian, heads ordered (speech0, speech1, noise).
    """
    if not mask_sets:
        raise ValueError("mask_sets must be non-empty")
    frames, bins_ = mask_sets[0].speech.shape[1:]
    with open(path, "wb") as fh:
        fh.write(
            _MASK_HEADER.pack(
                MASK_MAGIC, MASK_VERSION, 3, frames, bins_, len(mask_sets), hop_frames
            )
        )
        for mset in mask_sets:
            stacked = np.concatenate([mset.speech, mset.noise[np.newaxis]], axis=0)
            if stacked.shape != (3, frames, bins_):
                raise ValueError("all windows must share one shape")
            fh.write(stacked.astype("<f4").tobytes())


def read_mask_file(path):
    """Read a mask container; returns (list of MaskSet, hop_frames)."""
    from .masks import MaskSet

    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read mask file {path}: {exc.strerror or exc}") from exc
    with fh:
        header = fh.read(_MASK_HEADER.size)
        if len(header) < _MASK_HEADER.size:
            raise FormatError(f"truncated mask header in {path}")
        magic, version, heads, frames, bins_, windows, hop = _MASK_HEADER.unpack(header)
        if magic != MASK_MAGIC:
            raise FormatError(f"bad magic {magic!r} in {path}")
        if version != MASK_VERSION:
            raise UnsupportedFormatError(f"unsupported mask container version {version}")
        if heads != 3:
            raise FormatError(f"expected 3 heads, found {heads}")
        if windows == 0:
            raise FormatError(f"mask file {path} holds no windows")
        payload = fh.read()
    expected = windows * heads * frames * bins_ * 4
    if len(payload) != expected:
        raise FormatError(
            f"mask payload size mismatch in {path}: expected {expected} bytes, "
            f"found {len(payload)}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(windows, heads, frames, bins_)
    if data.size and (data.min() < 0.0 or data.max() > 1.0):
        raise RangeError(f"mask values outside [0, 1] in {path}")
    sets = [
        MaskSet(
            speech=data[c, :2].astype(np.float64),
            noise=data[c, 2].astype(np.float64),
        )
        for c in range(windows)
    ]
    return sets, hop
