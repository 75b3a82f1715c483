import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unmix.errors import FormatError, RangeError, UnsupportedFormatError
from unmix.masks import MaskSet
from unmix.signal_io import (
    _BLOCK_SAMPLES,
    MultichannelWave,
    WaveReader,
    WaveWriter,
    circular_array,
    read_mask_file,
    read_wave,
    write_mask_file,
    write_wave,
)


def test_wave_header_round_trip(tmp_path, rng):
    wave = MultichannelWave(rng.uniform(-0.5, 0.5, size=(2, 16000)), 16000)
    path = tmp_path / "two_channel.wav"
    write_wave(wave, path)
    back = read_wave(path)
    assert back.channel_count == 2
    assert back.sample_rate == 16000
    assert back.samples.shape == (2, 16000)


def test_wave_round_trip_within_quantization(tmp_path, rng):
    wave = MultichannelWave(rng.uniform(-0.9, 0.9, size=(3, 4000)), 16000)
    path = tmp_path / "w.wav"
    write_wave(wave, path)
    back = read_wave(path)
    assert np.max(np.abs(back.samples - wave.samples)) <= 1.0 / 32768.0


def test_float32_round_trip(tmp_path, rng):
    wave = MultichannelWave(rng.standard_normal((2, 1000)) * 0.1, 16000)
    path = tmp_path / "f.wav"
    write_wave(wave, path, dtype="float32")
    back = read_wave(path)
    assert np.max(np.abs(back.samples - wave.samples)) < 1e-6


def test_truncated_header_is_format_error(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFF\x00\x00")
    with pytest.raises(FormatError):
        read_wave(path)


def test_missing_file_is_format_error(tmp_path):
    for read in (read_wave, read_mask_file):
        with pytest.raises(FormatError, match="absent"):
            read(tmp_path / "absent")


# a WAVE_FORMAT_EXTENSIBLE fmt tail: cbSize, valid bits, channel mask, PCM subformat GUID
_EXTENSIBLE_PCM = struct.pack("<HHI", 22, 24, 4) + bytes.fromhex("0100000000001000800000aa00389b71")


@pytest.mark.parametrize(
    "tag, tail", [(1, b""), (0xFFFE, _EXTENSIBLE_PCM)], ids=["PCM", "extensible"]
)
def test_24_bit_pcm_is_named_unsupported(tmp_path, tag, tail):
    fmt = struct.pack("<HHIIHH", tag, 1, 16000, 48000, 3, 24) + tail
    data = bytes(3 * 100)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    path = tmp_path / "t24.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(UnsupportedFormatError, match="24-bit PCM"):
        WaveReader(path)


def _wav_file_bytes(data, rate, container, extensible, list_before, list_after):
    """A WAV file of `data` (frames, channels) in a RIFF, RIFX or RF64
    container, with a plain or a WAVE_FORMAT_EXTENSIBLE fmt chunk and an
    optional LIST chunk of odd size on either side of it."""
    order = ">" if container == "RIFX" else "<"

    def chunk(chunk_id, body, size=None):
        size = len(body) if size is None else size
        return chunk_id + struct.pack(order + "I", size) + body + b"\0" * (len(body) % 2)

    channels, width = data.shape[1], data.dtype.itemsize
    tag = 3 if data.dtype.kind == "f" else 1
    fmt = struct.pack(
        order + "HHIIHH",
        0xFFFE if extensible else tag,
        channels,
        rate,
        rate * channels * width,
        channels * width,
        8 * width,
    )
    if extensible:  # cbSize, valid bits, channel mask, subformat GUID
        guid_tail = "000000108000" if order == ">" else "000010008000"
        fmt += struct.pack(order + "HHII", 22, 8 * width, 0, tag)
        fmt += bytes.fromhex(guid_tail + "00aa00389b71")
    lists = [
        chunk(b"LIST", b"INFO" + b"x" * size) if size else b""
        for size in (list_before, list_after)
    ]
    payload = data.astype(data.dtype.newbyteorder(order)).tobytes()
    rf64 = container == "RF64"
    chunks = lists[0] + chunk(b"fmt ", fmt) + lists[1]
    chunks += chunk(b"data", payload, 0xFFFFFFFF if rf64 else None)
    if not rf64:
        return container.encode() + struct.pack(order + "I", 4 + len(chunks)) + b"WAVE" + chunks
    ds64 = chunk(b"ds64", struct.pack("<QQQI", 4 + 36 + len(chunks), len(payload), len(data), 0))
    return b"RF64" + b"\xff" * 4 + b"WAVE" + ds64 + chunks


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dtype=st.sampled_from(["int16", "float32", "float64"]),
    channels=st.integers(1, 8),
    frames=st.integers(0, 41),
    container=st.sampled_from(["RIFF", "RIFX", "RF64"]),
    extensible=st.booleans(),
    list_before=st.sampled_from([0, 1, 5]),
    list_after=st.sampled_from([0, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_wave_reader_reads_what_scipy_reads(
    dtype, channels, frames, container, extensible, list_before, list_after, seed
):
    rng = np.random.default_rng(seed)
    if dtype == "int16":
        data = rng.integers(-32768, 32768, (frames, channels)).astype(np.int16)
    else:
        data = rng.uniform(-1.0, 1.0, (frames, channels)).astype(dtype)
    content = _wav_file_bytes(data, 22050, container, extensible, list_before, list_after)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.wav"
        path.write_bytes(content)
        rate, theirs = scipy.io.wavfile.read(path)
        reader = WaveReader(path)
        ours = reader.read(0, reader.num_samples)
    theirs = theirs.reshape(frames, channels)
    np.testing.assert_array_equal(theirs, data)
    expected = theirs.T / 32768.0 if dtype == "int16" else theirs.T.astype(np.float64)
    assert (reader.sample_rate, reader.channel_count) == (rate, channels)
    np.testing.assert_array_equal(ours, expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_are_format_error(tmp_path, bad):
    data = np.zeros((100, 2), dtype=np.float32)
    data[50, 1] = bad
    path = tmp_path / "bad.wav"
    scipy.io.wavfile.write(path, 16000, data)
    with pytest.raises(FormatError, match="non-finite"):
        read_wave(path)


@pytest.mark.parametrize("container", ["RIFF", "RIFX"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_of_either_byte_order_are_format_error(
    tmp_path, container, dtype, bad
):
    data = np.zeros((_BLOCK_SAMPLES + 10, 2), dtype=dtype)
    data[_BLOCK_SAMPLES + 5, 1] = bad  # in the second block of the check
    path = tmp_path / "bad.wav"
    path.write_bytes(_wav_file_bytes(data, 16000, container, False, 0, 0))
    with pytest.raises(FormatError, match="non-finite"):
        WaveReader(path)
    data[_BLOCK_SAMPLES + 5, 1] = 0.5
    path.write_bytes(_wav_file_bytes(data, 16000, container, False, 0, 0))
    np.testing.assert_array_equal(WaveReader(path).read(0, len(data)), data.T)


@settings(max_examples=40, deadline=None)
@given(
    dtype=st.sampled_from(["int16", "float32"]),
    channels=st.integers(1, 3),
    samples=st.integers(0, 3000),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_wave_writer_in_blocks_writes_scipys_bytes(dtype, channels, samples, seed, data):
    x = np.random.default_rng(seed).uniform(-1.2, 1.2, (channels, samples))
    cuts = sorted(data.draw(st.lists(st.integers(0, samples), max_size=5)))
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.wav", Path(tmp) / "theirs.wav"
        with WaveWriter(ours, 16000, channels, samples, dtype) as writer:
            for lo, hi in zip([0, *cuts], [*cuts, samples]):
                writer.write(x[:, lo:hi])
        if dtype == "int16":
            ref = np.round(np.clip(x, -1.0, 32767.0 / 32768.0) * 32768.0).astype(np.int16)
        else:
            ref = x.astype(np.float32)
        scipy.io.wavfile.write(theirs, 16000, ref.T.copy())
        assert ours.read_bytes() == theirs.read_bytes()


def test_wave_writer_removes_a_file_left_short(tmp_path):
    path = tmp_path / "short.wav"
    with pytest.raises(ValueError, match="short"):
        with WaveWriter(path, 16000, 1, 10, "float32") as writer:
            writer.write(np.zeros((1, 4)))
    assert not path.exists()
    with pytest.raises(ValueError, match="finite"):
        write_wave(MultichannelWave(np.full((1, 4), np.nan), 16000), path)
    assert not path.exists()


@pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
def test_wave_reader_blocks_equal_whole_read(tmp_path, rng, dtype):
    x = rng.uniform(-0.9, 0.9, (3000, 3))
    data = (x * 32767).astype(np.int16) if dtype == np.int16 else x.astype(dtype)
    path = tmp_path / "w.wav"
    scipy.io.wavfile.write(path, 8000, data)
    reader = WaveReader(path)
    assert (reader.channel_count, reader.num_samples, reader.sample_rate) == (3, 3000, 8000)
    whole = read_wave(path).samples
    expected = data.T / 32768.0 if dtype == np.int16 else data.T.astype(np.float64)
    np.testing.assert_array_equal(whole, expected)
    blocks = [reader.read(lo, hi) for lo, hi in ((0, 1000), (1000, 1001), (1001, 3000))]
    np.testing.assert_array_equal(np.concatenate(blocks, axis=1), whole)
    for index in (0, 2, -1):
        one = reader.channel(index)
        assert (one.channel_count, one.num_samples, one.sample_rate) == (1, 3000, 8000)
        np.testing.assert_array_equal(one.read(1000, 3000), whole[[index], 1000:])
    assert reader.read(0, 3000).shape == (3, 3000)  # the reader itself still reads all
    with pytest.raises(IndexError):
        reader.channel(3)


def test_zero_wave_writes_zeros(tmp_path):
    wave = MultichannelWave(np.zeros((1, 100)), 16000)
    path = tmp_path / "z.wav"
    write_wave(wave, path)
    assert np.all(read_wave(path).samples == 0.0)


def test_clipping_saturates_and_warns(tmp_path, caplog):
    wave = MultichannelWave(np.full((1, 10), 2.0), 16000)
    path = tmp_path / "clip.wav"
    with caplog.at_level("WARNING"):
        write_wave(wave, path)
    assert any("clip" in rec.message for rec in caplog.records)
    back = read_wave(path)
    assert np.all(back.samples == 32767.0 / 32768.0)


def test_unwritable_path_raises(tmp_path):
    wave = MultichannelWave(np.zeros((1, 10)), 16000)
    with pytest.raises(OSError):
        write_wave(wave, tmp_path / "no" / "such" / "dir.wav")


def _random_mask_sets(rng, windows=4, frames=150, bins=257):
    sets = []
    for _ in range(windows):
        sets.append(
            MaskSet(
                speech=rng.uniform(0, 1, size=(2, frames, bins)),
                noise=rng.uniform(0, 1, size=(frames, bins)),
            )
        )
    return sets


def test_mask_container_round_trip(tmp_path, rng):
    sets = _random_mask_sets(rng, windows=3, frames=10, bins=17)
    path = tmp_path / "masks.umxm"
    write_mask_file(path, sets, hop_frames=4)
    back, hop = read_mask_file(path)
    assert hop == 4
    assert len(back) == 3
    for orig, copy in zip(sets, back):
        # float32 is the container precision
        np.testing.assert_allclose(copy.speech, orig.speech, atol=1e-7)
        np.testing.assert_allclose(copy.noise, orig.noise, atol=1e-7)


@st.composite
def _mask_stacks(draw):
    """(windows, 3, frames, bins) masks in [0, 1], endpoints and subnormals included."""
    windows, frames, bins = (draw(st.integers(1, n)) for n in (4, 12, 12))
    return draw(arrays(np.float64, (windows, 3, frames, bins), elements=st.floats(0.0, 1.0)))


@settings(max_examples=100, deadline=None)
@given(masks=_mask_stacks(), hop=st.integers(0, 2**32 - 1))
def test_mask_container_round_trip_returns_float32_masks_and_hop(masks, hop):
    sets = [MaskSet(speech=m[:2], noise=m[2]) for m in masks]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "masks.umxm"
        write_mask_file(path, sets, hop_frames=hop)
        back, hop_back = read_mask_file(path)
    assert hop_back == hop
    assert len(back) == len(sets)
    expected = masks.astype(np.float32).astype(np.float64)
    for c, mset in enumerate(back):
        np.testing.assert_array_equal(mset.speech, expected[c, :2])
        np.testing.assert_array_equal(mset.noise, expected[c, 2])


def test_mask_container_shapes(tmp_path, rng):
    sets = _random_mask_sets(rng, windows=2, frames=150, bins=257)
    path = tmp_path / "m.umxm"
    write_mask_file(path, sets, hop_frames=38)
    back, _ = read_mask_file(path)
    assert all(s.speech.shape == (2, 150, 257) for s in back)


def test_all_ones_head_passes(tmp_path):
    sets = [
        MaskSet(
            speech=np.stack([np.ones((5, 9)), np.zeros((5, 9))]),
            noise=np.zeros((5, 9)),
        )
    ]
    path = tmp_path / "m.umxm"
    write_mask_file(path, sets, hop_frames=2)
    back, _ = read_mask_file(path)
    assert np.all(back[0].speech[0] == 1.0)
    assert np.all(back[0].speech[1] == 0.0)


def test_out_of_range_mask_value_raises(tmp_path):
    sets = _random_mask_sets(np.random.default_rng(0), windows=1, frames=4, bins=5)
    path = tmp_path / "m.umxm"
    write_mask_file(path, sets, hop_frames=1)
    raw = bytearray(path.read_bytes())
    header = 7 * 4
    raw[header : header + 4] = np.array([1.5], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(RangeError):
        read_mask_file(path)


@pytest.mark.parametrize("bad", [-0.25, np.nan])
def test_negative_or_nan_mask_value_in_a_later_window_raises(tmp_path, bad):
    sets = _random_mask_sets(np.random.default_rng(0), windows=3, frames=4, bins=5)
    path = tmp_path / "m.umxm"
    write_mask_file(path, sets, hop_frames=1)
    raw = bytearray(path.read_bytes())
    at = 7 * 4 + 2 * (3 * 4 * 5 * 4) + 7 * 4  # the 8th value of window 2
    raw[at : at + 4] = np.array([bad], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(RangeError):
        read_mask_file(path)


def test_empty_container_is_format_error(tmp_path):
    path = tmp_path / "m.umxm"
    path.write_bytes(struct.pack("<4sIIIIII", b"UMXM", 1, 3, 150, 257, 0, 38))
    with pytest.raises(FormatError, match="no windows"):
        read_mask_file(path)


def test_payload_size_mismatch_raises(tmp_path):
    sets = _random_mask_sets(np.random.default_rng(0), windows=2, frames=4, bins=5)
    path = tmp_path / "m.umxm"
    write_mask_file(path, sets, hop_frames=1)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        read_mask_file(path)


def test_circular_array_layout():
    geo = circular_array()
    assert geo.channel_count == 7
    assert geo.reference_index == 0
    np.testing.assert_allclose(geo.positions[0], 0.0)
    radii = np.linalg.norm(geo.positions[1:], axis=1)
    np.testing.assert_allclose(radii, 0.0425)
