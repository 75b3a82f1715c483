"""Command-line front end: scene simulation, separation runs, evaluation,
and config inspection."""

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    load_pipeline_config,
    load_scene_spec,
    pipeline_config_text,
)
from .dereverb import WpeFrames
from .errors import (
    ConfigurationError,
    FormatError,
    InputError,
    InsufficientInputError,
    UnmixError,
)
from .masks import FileMaskProvider, OracleMaskProvider
from .metrics import (
    activity_frame_ranges,
    channel_leakage_db,
    nonmixing_rate,
    permutation_eval,
    solo_ranges,
)
from .signal_io import ArrayGeometry, MultichannelWave, WaveReader, WaveWriter, read_wave, write_wave
from .simulator import make_mixture, speech_like_source
from .stft import OverlapAdd, StftFrames
from .stitcher import plan_windows, separate_windows

log = logging.getLogger("unmix")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3


def cmd_simulate(args):
    room, mix_spec = load_scene_spec(args.scene)
    count = len(room.source_positions)
    source_wavs = args.source_wav or []
    if len(source_wavs) > count:
        raise ConfigurationError(
            f"{len(source_wavs)} --source-wav files given, the scene has {count} source(s)"
        )
    sources = []
    for k in range(count):
        if k < len(source_wavs):
            wave = read_wave(source_wavs[k])
            # make_mixture renders at its default 16 kHz
            if wave.sample_rate != 16000 or wave.channel_count != 1:
                raise FormatError(
                    f"source WAV {source_wavs[k]} must be mono at 16000 Hz, "
                    f"got {wave.channel_count} channels at {wave.sample_rate} Hz"
                )
            sources.append(wave.samples[0])
        else:
            length = mix_spec.clip_seconds * (0.8 if k == 0 else 0.5)
            sources.append(speech_like_source(length, seed=mix_spec.seed * 1000 + k))
    mixture, truth = make_mixture(mix_spec, room, sources)

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_wave(mixture, outdir / "mixture.wav", dtype="float32")
    for k in range(len(sources)):
        write_wave(
            MultichannelWave(truth.utterance_images_ref[k], mixture.sample_rate),
            outdir / f"source{k}.wav",
            dtype="float32",
        )
    noise_ref = truth.noise[room.array_geometry.reference_index]
    has_noise = bool(np.any(noise_ref != 0.0))
    if has_noise:
        write_wave(
            MultichannelWave(noise_ref, mixture.sample_rate),
            outdir / "noise_ref.wav",
            dtype="float32",
        )
    meta = {
        "sample_rate": mixture.sample_rate,
        "channels": mixture.channel_count,
        "utterances": len(sources),
        "assignment": list(truth.assignment),
        "activity_samples": [list(seg) for seg in truth.activity],
        "configuration": mix_spec.configuration,
        "t60": room.t60,
        "snr_db": None if not has_noise else mix_spec.noise_snr_db,
        "seed": mix_spec.seed,
        "array_radius": float(np.linalg.norm(room.array_geometry.positions, axis=1).max()),
    }
    (outdir / "truth.json").write_text(json.dumps(meta, indent=2))
    log.info("wrote scene to %s", outdir)
    return EXIT_OK


def _open_truth_wave(path, num_samples, sample_rate, reference_index=None):
    """A truth WAV opened for reads, checked to cover the num_samples
    samples at sample_rate of the signal it goes with. A track of the truth
    (a source or the noise reference) is mono; the mixture, opened with the
    reference_index of the pipeline, holds that channel."""
    reader = WaveReader(path)
    if reader.sample_rate != sample_rate:
        raise FormatError(
            f"{path} is at {reader.sample_rate} Hz, the signal it goes with at {sample_rate} Hz"
        )
    if reader.num_samples < num_samples:
        raise InsufficientInputError(
            f"{path} has {reader.num_samples} samples, the signal it goes with {num_samples}"
        )
    if reference_index is None and reader.channel_count != 1:
        raise FormatError(f"{path} has {reader.channel_count} channels; a truth track is mono")
    if reference_index is not None and reader.channel_count <= reference_index:
        raise FormatError(
            f"{path} has {reader.channel_count} channels, no reference channel {reference_index}"
        )
    return reader


class _TrackSum:
    """The sum, in order, of mono tracks over their first num_samples
    samples, read block by block like a WaveReader; zeros without a track."""

    def __init__(self, tracks, num_samples, sample_rate):
        self._tracks = tracks
        self.num_samples, self.sample_rate, self.channel_count = num_samples, sample_rate, 1

    def read(self, lo, hi):
        total = np.zeros((1, hi - lo))
        for track in self._tracks:
            total += track.read(lo, hi)
        return total


def _read_truth_meta(path):
    """truth.json as simulate writes it: `utterances`, an `assignment` of
    output 0 or 1 per utterance and, optionally, one `[start, end]` sample
    segment per utterance in `activity_samples` (evaluate needs it) and the
    `array_radius` in meters the scene was rendered with."""
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not (isinstance(meta, dict) and {"utterances", "assignment"} <= meta.keys()):
        raise FormatError(f"{path} must be an object with 'utterances' and 'assignment'")
    count, assignment = meta["utterances"], meta["assignment"]
    if not (isinstance(count, int) and count >= 0):
        raise FormatError(f"{path}: 'utterances' must be a count, got {count!r}")
    if not (
        isinstance(assignment, list)
        and len(assignment) == count
        and all(isinstance(ch, int) and ch in (0, 1) for ch in assignment)
    ):
        raise FormatError(
            f"{path}: 'assignment' must name output 0 or 1 for each of the "
            f"{count} utterances, got {assignment!r}"
        )
    segments = meta.get("activity_samples")
    if segments is not None and not (
        isinstance(segments, list)
        and len(segments) == count
        and all(isinstance(seg, list) and len(seg) == 2 for seg in segments)
        and all(
            isinstance(lo, int) and isinstance(hi, int) and 0 <= lo <= hi
            for lo, hi in segments
        )
    ):
        raise FormatError(
            f"{path}: 'activity_samples' must give one [start, end] sample segment "
            f"for each of the {count} utterances"
        )
    radius = meta.get("array_radius", 1.0)
    if isinstance(radius, bool) or not (
        isinstance(radius, (int, float)) and np.isfinite(radius) and radius > 0
    ):
        raise FormatError(f"{path}: 'array_radius' must be finite and > 0, got {radius!r}")
    return meta


def _load_truth(truth_dir, num_samples, sample_rate):
    """truth.json, the two output streams and the noise reference of a
    simulate output directory; the tracks are checked and opened, not read."""
    truth_dir = Path(truth_dir)
    meta_path = truth_dir / "truth.json"
    if not meta_path.exists():
        raise ConfigurationError(f"missing truth metadata {meta_path}")
    meta = _read_truth_meta(meta_path)
    tracks = [[], []]  # the sources of each output stream, in assignment order
    for k, ch in enumerate(meta["assignment"]):
        path = truth_dir / f"source{k}.wav"
        tracks[ch].append(_open_truth_wave(path, num_samples, sample_rate))
    noise_path = truth_dir / "noise_ref.wav"
    noise = [_open_truth_wave(noise_path, num_samples, sample_rate)] if noise_path.exists() else []
    streams = [_TrackSum(t, num_samples, sample_rate) for t in tracks]
    return meta, streams, _TrackSum(noise, num_samples, sample_rate)


def _make_provider(config, spec, wave, plan):
    if config.mask_provider == "oracle":
        if not config.truth_dir:
            raise ConfigurationError(
                "oracle mask provider requires truth_dir pointing at simulate output"
            )
        meta, streams, noise = _load_truth(config.truth_dir, wave.num_samples, wave.sample_rate)
        radius = meta.get("array_radius", config.array_radius)
        if abs(radius - config.array_radius) > 1e-9 * config.array_radius:
            raise ConfigurationError(
                f"{config.truth_dir} was rendered with array_radius = {radius}, "
                f"the pipeline has {config.array_radius}"
            )
        return OracleMaskProvider(
            spec,
            [StftFrames(stream, config.stft) for stream in streams],
            StftFrames(noise, config.stft),
        )
    path = config.mask_provider[len("file:") :]
    provider = FileMaskProvider(path)
    for what, found, expected in (
        ("windows", len(provider), len(plan_windows(spec.frame_count, plan))),
        ("hop_frames", provider.hop_frames, plan.hop_frames),
        ("frames per window", provider.window_frames, plan.window_frames),
        ("bins", provider.bins, config.stft.bins),
    ):
        if found != expected:
            raise FormatError(
                f"mask file {path} has {what} = {found}, pipeline expects {expected}"
            )
    return provider


def _parse_overrides(pairs):
    """Turn repeated `--set KEY=VALUE` arguments into an override dict."""
    overrides = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not (sep and key and value):
            raise ConfigurationError(f"--set expects KEY=VALUE, got {pair!r}")
        overrides[key] = value
    return overrides


def cmd_separate(args):
    overrides = _parse_overrides(args.set)
    if args.truth_dir:
        overrides["truth_dir"] = args.truth_dir
    config = load_pipeline_config(args.config, overrides)
    geometry = config.geometry()
    reader = WaveReader(args.input)
    if reader.channel_count != geometry.channel_count:
        raise ConfigurationError(
            f"input has {reader.channel_count} channels, geometry expects "
            f"{geometry.channel_count}"
        )
    started = time.monotonic()
    source = reader
    if config.mode == "masking" and not config.dereverb:
        # The masks weigh the reference channel alone, so only it is read and
        # transformed, as the one microphone of the geometry; MVDR and WPE
        # need every channel.
        ref = geometry.reference_index
        source = reader.channel(ref)
        geometry = ArrayGeometry(positions=geometry.positions[[ref]], reference_index=0)
    spec = StftFrames(source, config.stft)
    provider = _make_provider(config, spec, reader, config.plan)
    if config.dereverb:  # held by the WpeFrames alone, which lets it go once it is read
        spec = WpeFrames(spec, config.wpe)

    # The streams are written as the windows are separated, under temporary
    # names that replace out0.wav/out1.wav only once both are complete; a
    # failed run leaves no temporary file behind.
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    partial = [outdir / f".out{i}.wav.partial" for i in (0, 1)]
    with ExitStack() as stack:
        writers = [
            stack.enter_context(
                WaveWriter(path, reader.sample_rate, 1, reader.num_samples, dtype="float32")
            )
            for path in partial
        ]
        overlap_add = OverlapAdd(config.stft, 2, spec.frame_count)
        for _, _, window_out in separate_windows(
            spec,
            provider,
            config.plan,
            config.mode,
            geometry,
            merge_threshold_deg=config.doa_merge_threshold_deg,
        ):
            for writer, samples in zip(writers, overlap_add.push(window_out)):
                writer.write(samples[np.newaxis])
        for writer in writers:  # the samples past the last full frame
            writer.write(np.zeros((1, writer.remaining)))
    try:
        for i, path in enumerate(partial):
            os.replace(path, outdir / f"out{i}.wav")
    finally:
        for path in partial:
            path.unlink(missing_ok=True)
    elapsed = time.monotonic() - started

    config_text = pipeline_config_text(config)
    manifest = {
        "tool": "unmix",
        "version": __version__,
        "numpy": np.__version__,
        "config": config_text,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "input": str(args.input),
        "seconds_elapsed": round(elapsed, 3),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    log.info("separated %s -> %s in %.2fs", args.input, outdir, elapsed)
    return EXIT_OK


_EVAL_BLOCK = 1 << 16  # samples of every signal that evaluate scores at a time


def _evaluate_scene(est_dir, truth_dir, config):
    est_dir, truth_dir = Path(est_dir), Path(truth_dir)
    outputs = [WaveReader(est_dir / f"out{i}.wav") for i in (0, 1)]
    shapes = [(w.channel_count, w.num_samples, w.sample_rate) for w in outputs]
    if shapes[0][0] != 1 or shapes[1] != shapes[0]:
        raise FormatError(
            f"estimates in {est_dir} must be mono at one length and rate; (channels, "
            f"samples, Hz) of out0.wav {shapes[0]}, of out1.wav {shapes[1]}"
        )
    _, num_samples, rate = shapes[0]
    config.stft.frame_count(num_samples)  # estimates shorter than one frame have no activity
    meta, streams, _ = _load_truth(truth_dir, num_samples, rate)
    segments = meta.get("activity_samples")
    if segments is None:
        raise FormatError(f"{truth_dir / 'truth.json'} lacks 'activity_samples'")
    mixture = _open_truth_wave(
        truth_dir / "mixture.wav", num_samples, rate, config.reference_index
    )
    signals = [*outputs, *streams, mixture.channel(config.reference_index)]
    assignment = meta["assignment"]
    solo = solo_ranges([(a, b, ch) for (a, b), ch in zip(segments, assignment)])
    # every score comes from sums: the signals' Gram matrix, solo_energy[c]
    # (each output's energy where stream c alone is active) and cross[k]
    # (each output's product with utterance k's stream over its segment)
    gram, solo_energy, cross = np.zeros((5, 5)), np.zeros((2, 2)), np.zeros((len(segments), 2))
    for lo in range(0, num_samples, _EVAL_BLOCK):
        hi = min(lo + _EVAL_BLOCK, num_samples)
        block = np.vstack([s.read(lo, hi) for s in signals])
        gram += block @ block.T
        for c, a, b in solo:
            if a < hi and b > lo:
                solo_energy[c] += np.sum(block[:2, max(a - lo, 0) : b - lo] ** 2, axis=1)
        for k, (a, b) in enumerate(segments):
            if a < hi and b > lo:
                part = slice(max(a - lo, 0), b - lo)
                cross[k] += block[:2, part] @ block[2 + assignment[k], part]
    report = permutation_eval(gram)
    # each utterance goes to the output that carries the most of it, as bench/check.py decides
    frames = activity_frame_ranges(segments, num_samples, config.stft.hop, config.stft.window_size)
    outputs_used = np.argmax(cross, axis=1).tolist()
    report.nonmixing_violation_rate = nonmixing_rate(
        [(a, b, ch) for (a, b), ch in zip(frames, outputs_used)]
    )
    # stream c is in output permutation_used.index(c)
    report.leakage_db = channel_leakage_db(solo_energy[:, np.argsort(report.permutation_used)])
    return report


def cmd_evaluate(args):
    config = load_pipeline_config(args.config)
    est_root, truth_root = Path(args.estimates), Path(args.truth)
    if not est_root.is_dir():
        raise ConfigurationError(f"estimates directory {est_root} does not exist")
    if (est_root / "out0.wav").exists():
        scene_pairs = [("scene", est_root, truth_root)]
    else:
        scene_pairs = []
        for sub in sorted(p for p in est_root.iterdir() if p.is_dir()):
            truth_sub = truth_root / sub.name
            if not truth_sub.exists():
                log.warning("skipping %s: no matching truth directory", sub.name)
                continue
            scene_pairs.append((sub.name, sub, truth_sub))
    if not scene_pairs:
        raise ConfigurationError("no evaluable scenes found")
    reports = {}
    failed_invariant = False
    for name, est_dir, truth_dir in scene_pairs:  # every scene is scored before any report
        try:
            reports[name] = _evaluate_scene(est_dir, truth_dir, config)
        except UnmixError as exc:
            raise type(exc)(f"scene {est_dir}: {exc}") from exc
    for name, est_dir, _ in scene_pairs:
        report = reports[name]
        if report.nonmixing_violation_rate and report.nonmixing_violation_rate > 0:
            failed_invariant = True
        (est_dir / "report.txt").write_text(report.to_kv_text())
        (est_dir / "report.json").write_text(report.to_json())
        print(f"{name}: {report.to_kv_text().strip().replace(os.linesep, ' ')}")
    totals = [r.total_si_sdr() for r in reports.values()]
    aggregate = {
        "scenes": len(reports),
        "mean_total_si_sdr": float(np.mean(totals)),
    }
    (est_root / "aggregate.json").write_text(json.dumps(aggregate, indent=2))
    print(f"aggregate: scenes={len(reports)} mean_total_si_sdr={np.mean(totals):.2f}")
    return EXIT_INVARIANT if failed_invariant else EXIT_OK


def cmd_print_config(args):
    config = load_pipeline_config(args.config, _parse_overrides(args.set))
    sys.stdout.write(pipeline_config_text(config))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="unmix",
        description="Multichannel continuous speech separation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scene from a scene-spec file")
    p.add_argument("scene", help="scene spec (key = value text)")
    p.add_argument("output", help="output directory")
    p.add_argument(
        "--source-wav", action="append", help="WAV to use as source material"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("separate", help="separate a multichannel WAV into two streams")
    p.add_argument("input", help="multichannel input WAV")
    p.add_argument("output", help="output directory")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--truth-dir", help="simulate output dir (oracle provider)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="score separated streams against ground truth")
    p.add_argument("estimates", help="directory with out0.wav/out1.wav (or scene subdirs)")
    p.add_argument("truth", help="matching simulate output directory (or parent)")
    p.add_argument("--config", help="pipeline config file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("print-config", help="print the effective configuration")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_print_config)
    return parser


def main(argv=None):
    level = os.environ.get("UNMIX_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        levels = "DEBUG, INFO, WARNING, ERROR or CRITICAL"
        print(f"error: UNMIX_LOG={level} is not {levels}", file=sys.stderr)
        return EXIT_DATA
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a named file, most often an output, that cannot be used
        name = exc.filename2 or exc.filename
        print(f"error: {name}: {exc.strerror}" if name else f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except UnmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
