"""Spans around the calls into each layer, and the per-layer metrics made
from them.

The worker wraps each layer's public functions at the place where the
caller looks them up (e.g. `unmix.cli.analyze`, `unmix.beamformer.sig_cov`),
so nothing under `src/` changes. Spans are kept in memory as
[name, start, end, parent index, attributes] and written out when the run
ends; the parent turns them into the per-layer metrics.
"""

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []  # indices of the spans currently running

    @contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, attributes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attributes is not None:
                record[4] = attributes(args, result)
            return result

        return traced


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _frames_in(args, result):
    return {"frames": args[0].data.shape[1]}


def _heads_swapped(args, result):
    # align_and_emit(state, masks, ref_mag, range) -> (state, emit, permuted masks)
    return {"swapped": not np.array_equal(result[2].speech[0], args[1].speech[0])}


# (module:attribute where the caller looks it up, span name, span attributes)
HOOKS = (
    ("unmix.cli:load_pipeline_config", "config.load", None),
    ("unmix.cli:read_wave", "signal_io.read_wave", _file_bytes),
    ("unmix.cli:write_wave", "signal_io.write_wave", None),
    ("unmix.masks:read_mask_file", "signal_io.read_mask_file", _file_bytes),
    ("unmix.cli:analyze", "stft.analyze", lambda a, r: {"frames": r.data.shape[0] * r.data.shape[1]}),
    ("unmix.cli:synthesize", "stft.synthesize", None),
    ("unmix.cli:wpe_stream", "dereverb.wpe_stream", _frames_in),
    ("unmix.dereverb:wpe_block", "dereverb.wpe_block", _frames_in),
    ("unmix.cli:_make_provider", "masks.provider_setup", None),
    ("unmix.masks:OracleMaskProvider.mask_for_window", "masks.mask_for_window", None),
    ("unmix.masks:FileMaskProvider.mask_for_window", "masks.mask_for_window", None),
    ("unmix.stitcher:normalize_masks", "masks.normalize", None),
    ("unmix.stitcher:merge_heads_if_same_doa", "masks.merge_doa", lambda a, r: {"merged": r is not a[0]}),
    ("unmix.masks:estimate_doa", "masks.estimate_doa", None),
    ("unmix.masks:steering_vectors", "masks.steering_vectors", None),
    ("unmix.cli:run_pipeline", "stitcher.run_pipeline", None),
    ("unmix.stitcher:align_and_emit", "stitcher.align", _heads_swapped),
    ("unmix.stitcher:beamform_window", "beamformer.beamform_window", None),
    ("unmix.beamformer:sig_cov", "beamformer.sig_cov", None),
    ("unmix.beamformer:principal_component", "beamformer.principal_component", None),
    ("unmix.beamformer:mvdr_weights", "beamformer.mvdr_weights", None),
    ("unmix.beamformer:apply_weights", "beamformer.apply_weights", None),
    ("unmix.beamformer:gain_adjust", "beamformer.gain_adjust", None),
)


def install_hooks(tracer):
    """Wrap every hook target; returns the targets that no longer exist."""
    missing = []
    for target, name, attributes in HOOKS:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except AttributeError:
            missing.append(target)
            continue
        setattr(owner, attr, tracer.wrap(fn, name, attributes))
    return missing


# per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "signal_io.read_wave_s": "s",
    "signal_io.write_wave_s": "s",
    "signal_io.read_mask_file_s": "s",
    "signal_io.bytes_read": "bytes",
    "stft.analyze_s": "s",
    "stft.synthesize_s": "s",
    "stft.frames": "count",
    "dereverb.wpe_stream_s": "s",
    "dereverb.wpe_block_s": "s",
    "dereverb.wpe_block_calls": "count",
    "dereverb.reprocess_ratio": "ratio",
    "masks.provider_setup_s": "s",
    "masks.mask_for_window_s": "s",
    "masks.normalize_s": "s",
    "masks.merge_doa_s": "s",
    "masks.estimate_doa_calls": "count",
    "masks.estimate_doa_s": "s",
    "masks.steering_vectors_calls": "count",
    "masks.steering_vectors_s": "s",
    "masks.merges": "count",
    "stitcher.windows": "count",
    "stitcher.run_pipeline_s": "s",
    "stitcher.self_s": "s",
    "stitcher.align_s": "s",
    "stitcher.window_ms_p50": "ms",
    "stitcher.window_ms_p99": "ms",
    "stitcher.realigned_frac": "ratio",
    "beamformer.beamform_window_s": "s",
    "beamformer.sig_cov_calls": "count",
    "beamformer.sig_cov_s": "s",
    "beamformer.principal_component_s": "s",
    "beamformer.mvdr_weights_s": "s",
    "beamformer.apply_weights_s": "s",
    "beamformer.gain_adjust_s": "s",
    "cli.separate_s": "s",
    "cli.self_s": "s",
    "config.load_s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(spans, swaps=None):
    """Per-layer metrics of one traced operation.

    swaps: per window, whether the mask source swapped its heads (None when
    nothing was injected). realigned_frac is the share of windows whose
    permutation undoes the injected swap relative to the first window.
    """
    duration = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(list)
    children = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (name, start, end, parent, attributes) in enumerate(spans):
        duration[name] += end - start
        self_time[name] += end - start - children[i]
        calls[name] += 1
        if attributes:
            attrs[name].append(attributes)

    def total(name, key):
        return sum(a[key] for a in attrs[name])

    stream_frames = total("dereverb.wpe_stream", "frames")
    swapped = [a["swapped"] for a in attrs["stitcher.align"]]
    injected = swaps if swaps is not None else [False] * len(swapped)
    realigned = [s == (injected[c] != injected[0]) for c, s in enumerate(swapped)]
    window_ms = _window_ms(spans)
    return {
        "signal_io.read_wave_s": duration["signal_io.read_wave"],
        "signal_io.write_wave_s": duration["signal_io.write_wave"],
        "signal_io.read_mask_file_s": duration["signal_io.read_mask_file"],
        "signal_io.bytes_read": total("signal_io.read_wave", "bytes")
        + total("signal_io.read_mask_file", "bytes"),
        "stft.analyze_s": duration["stft.analyze"],
        "stft.synthesize_s": duration["stft.synthesize"],
        "stft.frames": total("stft.analyze", "frames"),
        "dereverb.wpe_stream_s": duration["dereverb.wpe_stream"],
        "dereverb.wpe_block_s": duration["dereverb.wpe_block"],
        "dereverb.wpe_block_calls": calls["dereverb.wpe_block"],
        "dereverb.reprocess_ratio": total("dereverb.wpe_block", "frames") / stream_frames
        if stream_frames
        else 0.0,
        "masks.provider_setup_s": duration["masks.provider_setup"],
        "masks.mask_for_window_s": duration["masks.mask_for_window"],
        "masks.normalize_s": duration["masks.normalize"],
        "masks.merge_doa_s": duration["masks.merge_doa"],
        "masks.estimate_doa_calls": calls["masks.estimate_doa"],
        "masks.estimate_doa_s": duration["masks.estimate_doa"],
        "masks.steering_vectors_calls": calls["masks.steering_vectors"],
        "masks.steering_vectors_s": duration["masks.steering_vectors"],
        "masks.merges": sum(a["merged"] for a in attrs["masks.merge_doa"]),
        "stitcher.windows": calls["stitcher.align"],
        "stitcher.run_pipeline_s": duration["stitcher.run_pipeline"],
        "stitcher.self_s": self_time["stitcher.run_pipeline"],
        "stitcher.align_s": duration["stitcher.align"],
        "stitcher.window_ms_p50": float(np.percentile(window_ms, 50)) if window_ms else 0.0,
        "stitcher.window_ms_p99": float(np.percentile(window_ms, 99)) if window_ms else 0.0,
        "stitcher.realigned_frac": float(np.mean(realigned)) if realigned else 0.0,
        "beamformer.beamform_window_s": duration["beamformer.beamform_window"],
        "beamformer.sig_cov_calls": calls["beamformer.sig_cov"],
        "beamformer.sig_cov_s": duration["beamformer.sig_cov"],
        "beamformer.principal_component_s": duration["beamformer.principal_component"],
        "beamformer.mvdr_weights_s": duration["beamformer.mvdr_weights"],
        "beamformer.apply_weights_s": duration["beamformer.apply_weights"],
        "beamformer.gain_adjust_s": duration["beamformer.gain_adjust"],
        "cli.separate_s": duration["cli.main"],
        "cli.self_s": self_time["cli.main"],
        "config.load_s": duration["config.load"],
    }


def _window_ms(spans):
    """Wall time of each pipeline window: from one window's mask request to
    the next one's (the last window ends with run_pipeline)."""
    pipeline = [i for i, s in enumerate(spans) if s[0] == "stitcher.run_pipeline"]
    if not pipeline:
        return []
    root = pipeline[-1]
    starts = [s[1] for s in spans if s[0] == "masks.mask_for_window" and s[3] == root]
    edges = starts + [spans[root][2]]
    return [1000.0 * (b - a) for a, b in zip(edges, edges[1:])]
