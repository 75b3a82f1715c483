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
from .dereverb import wpe_stream
from .errors import (
    ConfigurationError,
    FormatError,
    InputError,
    InsufficientInputError,
    UnmixError,
)
from .masks import FileMaskProvider, OracleMaskProvider
from .metrics import (
    activity_frames_from_segments,
    best_permutation_eval,
    channel_leakage_db,
    check_nonmixing,
)
from .signal_io import MultichannelWave, WaveReader, WaveWriter, read_wave, write_wave
from .simulator import make_mixture, speech_like_source
from .stft import OverlapAdd, StftFrames, analyze
from .stitcher import plan_windows, separate_windows

# bench/spans.py times these by their names in this module, which separate
# no longer calls; kept so that its hooks still resolve
from .stft import synthesize  # noqa: F401
from .stitcher import run_pipeline  # noqa: F401

log = logging.getLogger("unmix")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3


def cmd_simulate(args):
    scene = load_scene_spec(args.scene)
    room = scene.room()
    mix_spec = scene.mixture_spec()
    rng_seed = scene.seed
    sources = []
    for k in range(len(scene.source_positions)):
        if args.source_wav and k < len(args.source_wav):
            wave = read_wave(args.source_wav[k])
            # make_mixture renders at its default 16 kHz
            if wave.sample_rate != 16000 or wave.channel_count != 1:
                raise FormatError(
                    f"source WAV {args.source_wav[k]} must be mono at 16000 Hz, "
                    f"got {wave.channel_count} channels at {wave.sample_rate} Hz"
                )
            sources.append(wave.samples[0])
        else:
            length = scene.duration * (0.8 if k == 0 else 0.5)
            sources.append(
                speech_like_source(length, seed=rng_seed * 1000 + k)
            )
    mixture, truth = make_mixture(mix_spec, room, sources)

    outdir = _output_dir(args.output)
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
        "t60": scene.t60,
        "snr_db": None if not has_noise else scene.snr_db,
        "seed": scene.seed,
    }
    (outdir / "truth.json").write_text(json.dumps(meta, indent=2))
    log.info("wrote scene to %s", outdir)
    return EXIT_OK


def _output_dir(path):
    """Create the output directory; a path that cannot be one is a data error."""
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot write to {outdir}: {exc.strerror or exc}") from exc
    return outdir


def _read_truth_wave(path, num_samples, sample_rate):
    """Channels (J, num_samples) of a truth WAV that must cover the signal it
    is compared with, at that signal's rate."""
    wave = read_wave(path)
    if wave.sample_rate != sample_rate:
        raise FormatError(
            f"{path} is at {wave.sample_rate} Hz, the signal it scores at {sample_rate} Hz"
        )
    if wave.samples.shape[1] < num_samples:
        raise InsufficientInputError(
            f"{path} has {wave.samples.shape[1]} samples, the signal it scores {num_samples}"
        )
    return wave.samples[:, :num_samples]


def _read_truth_track(path, num_samples, sample_rate):
    """A source or noise reference of the truth, which is mono."""
    samples = _read_truth_wave(path, num_samples, sample_rate)
    if len(samples) != 1:
        raise FormatError(f"{path} has {len(samples)} channels; a truth track is mono")
    return samples[0]


def _read_truth_meta(path):
    """truth.json as simulate writes it: `utterances`, an `assignment` of
    output 0 or 1 per utterance and, optionally (evaluate needs it), one
    `[start, end]` sample segment per utterance in `activity_samples`."""
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
    return meta


def _load_truth(truth_dir, num_samples, sample_rate):
    truth_dir = Path(truth_dir)
    meta_path = truth_dir / "truth.json"
    if not meta_path.exists():
        raise ConfigurationError(f"missing truth metadata {meta_path}")
    meta = _read_truth_meta(meta_path)
    sources = [
        _read_truth_track(truth_dir / f"source{k}.wav", num_samples, sample_rate)
        for k in range(meta["utterances"])
    ]
    noise_path = truth_dir / "noise_ref.wav"
    if noise_path.exists():
        noise = _read_truth_track(noise_path, num_samples, sample_rate)
    else:
        noise = np.zeros(num_samples)
    channel_sources = [np.zeros(num_samples), np.zeros(num_samples)]
    for k, ch in enumerate(meta["assignment"]):
        channel_sources[ch] += sources[k]
    return meta, sources, channel_sources, noise


def _make_provider(config, spec, wave, plan):
    if config.mask_provider == "oracle":
        if not config.truth_dir:
            raise ConfigurationError(
                "oracle mask provider requires truth_dir pointing at simulate output"
            )
        rate = wave.sample_rate
        _, _, channel_sources, noise = _load_truth(config.truth_dir, wave.num_samples, rate)
        source_specs = [
            analyze(MultichannelWave(s, rate), config.stft) for s in channel_sources
        ]
        noise_spec = analyze(MultichannelWave(noise, rate), config.stft)
        return OracleMaskProvider(spec, source_specs, noise_spec)
    path = config.mask_provider[len("file:") :]
    provider = FileMaskProvider(path)
    for what, found, expected in (
        ("windows", provider.window_count, len(plan_windows(spec.frame_count, plan))),
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


def _open_output(path, sample_rate, num_samples):
    try:
        return WaveWriter(path, sample_rate, 1, num_samples, dtype="float32")
    except OSError as exc:
        raise ConfigurationError(f"cannot write to {path}: {exc.strerror or exc}") from exc


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
    frames = StftFrames(reader, config.stft)

    # The streams are written as the windows are separated, under temporary
    # names that replace out0.wav/out1.wav only once both are complete.
    outdir = _output_dir(args.output)
    partial = [outdir / f".out{i}.wav.partial" for i in (0, 1)]
    with ExitStack() as stack:
        writers = [
            stack.enter_context(_open_output(path, reader.sample_rate, reader.num_samples))
            for path in partial
        ]
        spec = wpe_stream(analyze(reader, config.stft), config.wpe) if config.dereverb else frames
        # after WPE, whose peak memory the oracle provider's set-up would raise
        provider = _make_provider(config, frames, reader, config.plan)
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
    for i, path in enumerate(partial):
        os.replace(path, outdir / f"out{i}.wav")
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


def _evaluate_scene(est_dir, truth_dir, config):
    est_dir, truth_dir = Path(est_dir), Path(truth_dir)
    waves = [read_wave(est_dir / f"out{i}.wav") for i in (0, 1)]
    shapes = [(w.channel_count, w.samples.shape[1], w.sample_rate) for w in waves]
    if shapes[0][0] != 1 or shapes[1] != shapes[0]:
        raise FormatError(
            f"estimates in {est_dir} must be mono at one length and rate; (channels, "
            f"samples, Hz) of out0.wav {shapes[0]}, of out1.wav {shapes[1]}"
        )
    estimates = [wave.samples[0] for wave in waves]
    _, num_samples, rate = shapes[0]
    meta, _, channel_sources, _ = _load_truth(truth_dir, num_samples, rate)
    segments = meta.get("activity_samples")
    if segments is None:
        raise FormatError(f"{truth_dir / 'truth.json'} lacks 'activity_samples'")
    mixture = _read_truth_wave(truth_dir / "mixture.wav", num_samples, rate)
    report = best_permutation_eval(
        estimates,
        channel_sources,
        mixture_ref=mixture[config.reference_index],
    )
    activity = activity_frames_from_segments(
        segments, num_samples, config.stft.hop, config.stft.window_size
    )
    report.nonmixing_violation_rate = check_nonmixing(meta["assignment"], activity)
    sample_activity = []
    for ch in range(2):
        mask = np.zeros(num_samples, dtype=bool)
        for k, c in enumerate(meta["assignment"]):
            if c == ch:
                lo, hi = segments[k]
                mask[lo:hi] = True
        sample_activity.append(mask)
    report.leakage_db = channel_leakage_db(estimates, sample_activity)
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
    for name, est_dir, truth_dir in scene_pairs:
        report = _evaluate_scene(est_dir, truth_dir, config)
        reports[name] = report
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
    logging.basicConfig(
        level=os.environ.get("UNMIX_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
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
    except UnmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
