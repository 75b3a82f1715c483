"""Multichannel audio and mask-container I/O plus canonical in-memory buffers."""

import copy
import logging
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, RangeError, UnsupportedFormatError

log = logging.getLogger(__name__)

SPEED_OF_SOUND = 343.0  # m/s
ARRAY_RADIUS = 0.0425  # m, the ring of the default array

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

    @property
    def num_samples(self):
        return self.samples.shape[1]

    def read(self, lo, hi):
        """Samples [lo, hi) as a (channels, hi - lo) view."""
        return self.samples[:, lo:hi]


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


def circular_array(channels=7, radius=ARRAY_RADIUS, center_mic=True):
    """Build a planar circular array, optionally with a center microphone.

    Default is 7 channels: one center mic (the reference, index 0) plus six
    mics evenly spaced on a 4.25 cm-radius circle. The radius must be
    finite and > 0.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"array_radius must be finite and > 0, got {radius}")
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


_BLOCK_SAMPLES = 1 << 16  # samples per channel in one block of the finite-sample check


class WaveReader:
    """A PCM16 or IEEE-float WAV file opened for block reads.

    The header is parsed once and the samples are checked to be finite in
    one blockwise pass; after that, read(lo, hi) reads just the samples it
    is asked for, so a long recording is never held whole. Shares
    channel_count, sample_rate, num_samples and read() with MultichannelWave.
    channel(index) gives a reader of one of its channels.
    """

    def __init__(self, path):
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise FormatError(f"cannot read WAV file {path}: {exc.strerror or exc}") from exc
        with fh:
            header = _read_wav_header(fh, path)
        self.path = path
        self.sample_rate, self.channel_count, self._dtype, self._offset, self.num_samples = header
        self._file_channels, self._picked = self.channel_count, slice(None)
        if self._dtype.kind == "f":
            for lo in range(0, self.num_samples, _BLOCK_SAMPLES):
                block = self._stored(lo, min(lo + _BLOCK_SAMPLES, self.num_samples))
                if not np.isfinite(block).all():
                    raise FormatError(f"non-finite samples in WAV file {path}")

    def channel(self, index):
        """A reader of channel `index` alone: its channel_count is 1, and its
        read() serves (1, hi - lo) arrays of that channel, picked from each
        block before the float64 conversion. The file is not parsed or
        checked again."""
        index = range(self._file_channels)[index]
        one = copy.copy(self)
        one.channel_count, one._picked = 1, slice(index, index + 1)
        return one

    def read(self, lo, hi):
        """Samples [lo, hi), 0 <= lo <= hi <= num_samples, as a (channels,
        hi - lo) float64 array normalized to [-1, 1)."""
        data = self._stored(lo, hi)[:, self._picked]
        if self._dtype.kind == "i":
            return (data.astype(np.float64) / 32768.0).T
        return data.astype(np.float64).T

    def _stored(self, lo, hi):
        """Samples [lo, hi) of every channel of the file, as stored there:
        a read-only (hi - lo, channels) array of the file's sample dtype."""
        frame_bytes = self._file_channels * self._dtype.itemsize
        count = hi - lo
        with open(self.path, "rb") as fh:
            fh.seek(self._offset + lo * frame_bytes)
            raw = fh.read(count * frame_bytes)
        if len(raw) != count * frame_bytes:
            raise FormatError(f"WAV file {self.path} ended before its declared length")
        return np.frombuffer(raw, dtype=self._dtype).reshape(count, self._file_channels)


def _read_wav_header(fh, path):
    """(sample rate, channels, sample dtype, data offset, frames) of the WAV
    file open as fh: a RIFF, RIFX (big-endian) or RF64 form, read chunk by
    chunk up to its data chunk; no sample is read."""

    def bad(what):
        return FormatError(f"cannot read WAV file {path}: {what}")

    head = fh.read(12)
    form = head[:4]
    if len(head) < 12 or form not in (b"RIFF", b"RIFX", b"RF64"):
        raise bad("not a RIFF, RIFX or RF64 file")
    if head[8:] != b"WAVE":
        raise bad(f"form type {head[8:]!r} is not WAVE")
    order = ">" if form == b"RIFX" else "<"
    fmt = rf64_data_bytes = None
    while True:
        chunk = fh.read(8)
        if len(chunk) < 8:
            raise bad("header ends inside a chunk" if chunk else "no data chunk")
        chunk_id, size = struct.unpack(order + "4sI", chunk)
        if chunk_id == b"data":
            break
        body = fh.read(size) if chunk_id in (b"fmt ", b"ds64") else b""
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"ds64" and len(body) >= 16:
            rf64_data_bytes = struct.unpack_from("<Q", body, 8)[0]
        fh.seek(size - len(body) + size % 2, os.SEEK_CUR)  # the pad byte of an odd size
    if fmt is None:
        raise bad("no fmt chunk before the data chunk")
    if len(fmt) < 16:
        raise bad(f"fmt chunk of {len(fmt)} bytes")
    tag, channels, rate, _, block_align, bits = struct.unpack_from(order + "HHIIHH", fmt)
    if tag == 0xFFFE and len(fmt) >= 28:  # WAVE_FORMAT_EXTENSIBLE: the tag of its subformat
        tag = struct.unpack_from(order + "I", fmt, 24)[0]
    if channels == 0 or block_align < channels:
        raise bad(f"{channels} channels in frames of {block_align} bytes")
    if rate == 0:
        raise bad("sample rate 0")
    width = block_align // channels
    if tag == 1 and width == 2 and bits > 8:
        dtype = np.dtype(order + "i2")
    elif tag == 3 and bits == 8 * width and width in (4, 8):
        dtype = np.dtype(f"{order}f{width}")
    else:
        name = {1: f"{bits}-bit PCM", 3: f"{bits}-bit float"}.get(tag, f"format tag {tag}")
        raise UnsupportedFormatError(f"unsupported WAV sample format {name} in {path}")
    data_bytes = size
    if form == b"RF64":  # the data chunk's own size field holds 0xFFFFFFFF
        if rf64_data_bytes is None:
            raise bad("RF64 file without a ds64 chunk")
        data_bytes = rf64_data_bytes
    if data_bytes // width % channels:
        raise bad("data chunk ends inside a frame")
    frames = data_bytes // (width * channels)
    offset = fh.tell()
    if offset + frames * width * channels > os.fstat(fh.fileno()).st_size:
        raise bad(f"data chunk of {data_bytes} bytes runs past the end of the file")
    return rate, channels, dtype, offset, frames


def read_wave(path):
    """Read a PCM16 or IEEE-float WAV file into a MultichannelWave.

    Samples are normalized to [-1, 1).
    """
    reader = WaveReader(path)
    return MultichannelWave(reader.read(0, reader.num_samples), reader.sample_rate)


class WaveWriter:
    """Appends blocks of samples to a PCM16 or float32 WAV file whose length
    is known before the first block.

    The header is written first; the finished file's bytes equal those that
    scipy.io.wavfile.write gives for the same samples. PCM16 values beyond
    [-1, 1) saturate, with a logged warning. Use it as a context manager:
    leaving the block by an exception, or with samples still missing,
    removes the file, so no file cut short is left behind.
    """

    def __init__(self, path, sample_rate, channels, num_samples, dtype="int16"):
        if dtype not in ("int16", "float32"):
            raise ValueError(f"unsupported output dtype {dtype}")
        self.path = path
        self.remaining = num_samples
        self._dtype = np.dtype(dtype).newbyteorder("<")
        self._channels = channels
        self._peak = 0.0
        header = _wav_header(sample_rate, channels, self._dtype, num_samples)
        self._fh = open(path, "wb")
        self._fh.write(header)

    def write(self, samples):
        """Append samples (channels, n), n at most `remaining`."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.shape[0] != self._channels or samples.shape[1] > self.remaining:
            raise ValueError(
                f"block of shape {samples.shape} does not fit {self._channels} channels "
                f"with {self.remaining} samples left"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if self._dtype.kind == "i":
            self._peak = max(self._peak, np.max(np.abs(samples), initial=0.0))
            samples = np.round(np.clip(samples, -1.0, 32767.0 / 32768.0) * 32768.0)
        self._fh.write(samples.T.astype(self._dtype).tobytes())
        self.remaining -= samples.shape[1]

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._fh.close()
        if exc_type is not None or self.remaining:
            os.unlink(self.path)
            if exc_type is None:
                raise ValueError(f"{self.path} ended {self.remaining} samples short")
        elif self._peak > 1.0:
            log.warning(
                "clipping %s: peak amplitude %.3f exceeds full scale", self.path, self._peak
            )


def _wav_header(sample_rate, channels, dtype, num_samples):
    """scipy.io.wavfile.write's header for num_samples samples of dtype."""
    is_float = dtype.kind == "f"
    block_align = channels * dtype.itemsize
    data_bytes = num_samples * block_align
    fmt = struct.pack(
        "<HHIIHH",
        3 if is_float else 1,  # IEEE float or PCM
        channels,
        sample_rate,
        sample_rate * block_align,
        block_align,
        8 * dtype.itemsize,
    )
    fact = b""
    if is_float:
        fmt += b"\x00\x00"  # cbSize of a non-PCM format
        fact = b"fact" + struct.pack("<II", 4, num_samples)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact
    riff_bytes = 4 + len(chunks) + 8 + data_bytes
    if riff_bytes > 0xFFFFFFFF:
        raise ValueError("WAV output beyond 4 GiB is not supported")
    return (
        b"RIFF" + struct.pack("<I", riff_bytes) + b"WAVE" + chunks
        + b"data" + struct.pack("<I", data_bytes)
    )


def write_wave(wave, path, dtype="int16"):
    """Write a MultichannelWave as PCM16 (default) or float32 WAV.

    Values beyond [-1, 1) saturate, with a logged warning.
    """
    samples = wave.samples
    with WaveWriter(path, wave.sample_rate, len(samples), samples.shape[1], dtype) as writer:
        writer.write(samples)


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


class MaskFile(Sequence):
    """A mask container opened for window reads.

    The header, the payload size and the [0, 1] range of every value are
    checked on opening, in one pass that reads one window at a time. After
    that, indexing reads one window from the file as a MaskSet. hop_frames,
    window_frames and bins describe the container.
    """

    def __init__(self, path):
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
            self.path = path
            self.hop_frames, self.window_frames, self.bins = hop, frames, bins_
            self._count = windows
            self._window_bytes = heads * frames * bins_ * 4
            payload = os.fstat(fh.fileno()).st_size - _MASK_HEADER.size
            expected = windows * self._window_bytes
            if payload != expected:
                raise FormatError(
                    f"mask payload size mismatch in {path}: expected {expected} bytes, "
                    f"found {payload}"
                )
            for _ in range(windows):
                data = np.frombuffer(fh.read(self._window_bytes), dtype="<f4")
                if data.size and not (data.min() >= 0.0 and data.max() <= 1.0):
                    raise RangeError(f"mask values outside [0, 1] in {path}")

    def __len__(self):
        return self._count

    def __getitem__(self, index):
        from .masks import MaskSet

        index = range(self._count)[index]
        with open(self.path, "rb") as fh:
            fh.seek(_MASK_HEADER.size + index * self._window_bytes)
            raw = fh.read(self._window_bytes)
        if len(raw) != self._window_bytes:
            raise FormatError(f"mask file {self.path} ended inside window {index}")
        data = np.frombuffer(raw, dtype="<f4").reshape(3, self.window_frames, self.bins)
        return MaskSet(speech=data[:2].astype(np.float64), noise=data[2].astype(np.float64))
