"""Seeded inputs for the benchmark workloads.

`MixtureSpec.clip_seconds` caps one simulated scene at 10 s, so long
recordings are built here by concatenating short scenes that are rendered
with the simulator's image-method impulse responses and isotropic noise.

Speech is kept continuous across the whole recording: every scene is
covered by its two utterances, and the next scene's first utterance starts
right after a short pause. So the stitcher always has a talker in the
overlap of two windows to align on. The oracle truth is written as one file per output stream (not per
utterance), so the oracle provider's set-up scales with length only; the
per-utterance activity stays on the benchmark's side for the checker.
"""

from dataclasses import dataclass, field
from pathlib import Path
import json

import numpy as np
import scipy.signal

from unmix.masks import ChannelSwappingProvider, OracleMaskProvider
from unmix.signal_io import MultichannelWave, circular_array, write_mask_file, write_wave
from unmix.simulator import RoomSpec, image_method_rirs, isotropic_noise, speech_like_source
from unmix.stft import StftConfig, analyze
from unmix.stitcher import WindowPlan, plan_windows

RATE = 16000
SCENE_SECONDS = 10.0
EARLY_SECONDS = 0.05  # direct path plus early reflections: what dereverberation keeps
PAUSE_SECONDS = 0.05  # > one 32 ms STFT frame, so adjacent utterances share no frame
KINDS = ("partial_overlap", "sequential", "contained_overlap")


@dataclass
class Workload:
    """How one workload's recording is built and separated."""

    name: str
    scenes: int
    scene_seconds: float
    t60_range: tuple
    snr_range: tuple
    rooms: int  # impulse responses are computed once per room and reused
    kinds: tuple
    cli_args: tuple  # `unmix separate` options besides input and output
    si_sdri_floor_db: float  # the checker's quality floor, see NOTES.md
    mask_file: bool = False  # masks from a file with seeded per-window head swaps

    @property
    def dereverb(self):
        return "dereverb=true" in self.cli_args


WORKLOADS = {
    "mask_long": Workload(
        name="mask_long",
        scenes=12,
        scene_seconds=SCENE_SECONDS,
        t60_range=(0.2, 0.4),
        snr_range=(10.0, 20.0),
        rooms=3,
        kinds=KINDS,
        cli_args=("--set", "mode=masking"),
        si_sdri_floor_db=8.0,
        mask_file=True,
    ),
    "bf_meeting": Workload(
        name="bf_meeting",
        scenes=6,
        scene_seconds=SCENE_SECONDS,
        t60_range=(0.2, 0.5),
        snr_range=(5.0, 20.0),
        rooms=3,
        kinds=KINDS,
        cli_args=("--set", "mode=beamforming"),
        si_sdri_floor_db=6.0,
    ),
    "bf_dereverb": Workload(
        name="bf_dereverb",
        scenes=1,
        scene_seconds=4.0,
        t60_range=(0.4, 0.6),
        snr_range=(15.0, 20.0),
        rooms=1,
        kinds=("partial_overlap",),
        cli_args=("--set", "mode=beamforming", "--set", "dereverb=true"),
        si_sdri_floor_db=-1.0,
    ),
}


@dataclass
class Utterance:
    stream: int  # output stream the oracle assigns it to
    start: int  # dry-signal activity, samples
    end: int


@dataclass
class Scene:
    """A generated recording plus everything the checker needs."""

    workload: Workload
    mixture_path: Path
    truth_dir: Path
    mask_path: Path
    seconds: float
    num_samples: int
    mixture_ref: np.ndarray  # (samples,) reference microphone
    streams: np.ndarray  # (2, samples) oracle truth per output stream
    references: np.ndarray  # (2, samples) what output quality is scored against
    utterances: list
    plan: WindowPlan = field(default_factory=WindowPlan)
    stft: StftConfig = field(default_factory=StftConfig)
    swaps: list = None  # per window: heads swapped in the mask file

    def scene_bounds(self):
        """Sample ranges of the concatenated scenes."""
        n = int(self.workload.scene_seconds * RATE)
        return [(lo, lo + n) for lo in range(0, self.num_samples, n)]

    def argv(self, outdir):
        args = ["separate", str(self.mixture_path), str(outdir), *self.workload.cli_args]
        if self.mask_path is not None:
            args += ["--set", f"mask_provider=file:{self.mask_path}"]
        else:
            args += ["--truth-dir", str(self.truth_dir)]
        return args


def _room(rng, t60):
    """A shoebox room with the array near its centre and two talkers
    1-1.6 m away, at least 90 degrees apart as seen from the array."""
    dims = np.array([rng.uniform(5.0, 7.0), rng.uniform(4.5, 6.0), rng.uniform(2.7, 3.2)])
    center = np.array([dims[0] / 2 + rng.uniform(-0.2, 0.2), dims[1] / 2 + rng.uniform(-0.2, 0.2), 1.2])
    az0 = rng.uniform(0.0, 2 * np.pi)
    azimuths = [az0, az0 + rng.uniform(0.5 * np.pi, 1.5 * np.pi)]
    sources = [
        center + [d * np.cos(a), d * np.sin(a), rng.uniform(0.1, 0.4)]
        for a, d in zip(azimuths, rng.uniform(1.0, 1.6, size=2))
    ]
    return RoomSpec(dimensions=dims, t60=t60, source_positions=sources, array_center=center)


def _layout(kind, n, rng):
    """Dry-signal segments (stream 0, stream 1) covering a scene of n samples."""
    end = n - int(PAUSE_SECONDS * RATE)
    if kind == "partial_overlap":
        first_end = int(rng.uniform(0.55, 0.75) * end)
        second_start = int(rng.uniform(0.3, 0.5) * end)
        return (0, first_end), (second_start, end)
    if kind == "sequential":
        first_end = int(rng.uniform(0.4, 0.6) * end)
        return (0, first_end), (first_end + int(rng.uniform(0.05, 0.2) * RATE), end)
    length = int(rng.uniform(0.3, 0.5) * end)
    start = int(rng.uniform(0.1 * end, 0.9 * end - length))
    return (0, end), (start, start + length)


def generate(wl, seed, workdir):
    """Render Workload `wl` for `seed` into `workdir`; returns a Scene."""
    rng = np.random.default_rng([seed, *wl.name.encode()])
    geometry = circular_array()
    ref = geometry.reference_index
    n_scene = int(wl.scene_seconds * RATE)
    total = wl.scenes * n_scene
    t60s = np.linspace(*wl.t60_range, wl.rooms + 1)
    rooms = [_room(rng, rng.uniform(t60s[i], t60s[i + 1])) for i in range(wl.rooms)]
    rirs = [[image_method_rirs(r, p, r.mic_positions(), RATE) for p in r.source_positions] for r in rooms]
    noise_block = isotropic_noise(geometry, wl.scene_seconds, RATE, seed=int(rng.integers(2**31))).samples
    kinds = [wl.kinds[i % len(wl.kinds)] for i in range(wl.scenes)]
    rng.shuffle(kinds)

    mixture = np.zeros((geometry.channel_count, total))
    streams = np.zeros((2, total))
    early = np.zeros((2, total)) if wl.dereverb else None
    noise_ref = np.zeros(total)
    utterances = []
    for s, kind in enumerate(kinds):
        lo = s * n_scene
        room = s % wl.rooms
        positions = rng.permutation(2)  # which talker position speaks on stream 0
        images = np.zeros((2, geometry.channel_count, n_scene))
        for stream, (a, b) in enumerate(_layout(kind, n_scene, rng)):
            dry = speech_like_source((b - a) / RATE, RATE, seed=int(rng.integers(2**31)))[: b - a]
            wet = scipy.signal.fftconvolve(dry[np.newaxis], rirs[room][positions[stream]], axes=1)
            wet = wet[:, : n_scene - a]
            images[stream, :, a : a + wet.shape[1]] = wet
            if early is not None:
                rir = rirs[room][positions[stream]][ref]
                cut = int(np.argmax(np.abs(rir))) + int(EARLY_SECONDS * RATE)  # direct path + early
                wet_early = scipy.signal.fftconvolve(dry, rir[:cut])[: n_scene - a]
                early[stream, lo + a : lo + a + len(wet_early)] = wet_early
            utterances.append(Utterance(stream, lo + a, lo + a + len(dry)))
        speech = images.sum(axis=0)
        noise = np.roll(noise_block, int(rng.integers(n_scene)), axis=1)
        snr = rng.uniform(*wl.snr_range)
        noise *= np.sqrt(np.mean(speech[ref] ** 2) / np.mean(noise[ref] ** 2) / 10 ** (snr / 10))
        mixture[:, lo : lo + n_scene] = speech + noise
        streams[:, lo : lo + n_scene] = images[:, ref]
        noise_ref[lo : lo + n_scene] = noise[ref]
    scale = 0.9 / np.max(np.abs(mixture))
    # the WAV files hold float32; keep the checker's copies identical to them
    mixture, streams, noise_ref = (
        (x * scale).astype(np.float32).astype(np.float64) for x in (mixture, streams, noise_ref)
    )

    workdir = Path(workdir)
    truth_dir = workdir / "truth"
    truth_dir.mkdir(parents=True)
    mixture_path = workdir / "mixture.wav"
    write_wave(MultichannelWave(mixture, RATE), mixture_path, dtype="float32")
    for k in (0, 1):
        write_wave(MultichannelWave(streams[k], RATE), truth_dir / f"source{k}.wav", dtype="float32")
    write_wave(MultichannelWave(noise_ref, RATE), truth_dir / "noise_ref.wav", dtype="float32")
    (truth_dir / "truth.json").write_text(json.dumps({"utterances": 2, "assignment": [0, 1]}))
    scene = Scene(
        workload=wl,
        mixture_path=mixture_path,
        truth_dir=truth_dir,
        mask_path=None,
        seconds=total / RATE,
        num_samples=total,
        mixture_ref=mixture[ref].copy(),
        streams=streams,
        # dereverberated output is scored against what WPE keeps
        references=streams if early is None else early * scale,
        utterances=utterances,
    )
    del mixture
    if wl.mask_file:
        scene.mask_path = workdir / "masks.umxm"
        scene.swaps = _write_swapped_masks(scene, noise_ref, seed)
    return scene


def _write_swapped_masks(scene, noise_ref, seed):
    """Oracle masks with seeded per-window head swaps, as a mask container."""
    spec_of = lambda x: analyze(MultichannelWave(x, RATE), scene.stft)
    oracle = OracleMaskProvider(
        spec_of(scene.mixture_ref), [spec_of(s) for s in scene.streams], spec_of(noise_ref)
    )
    windows = plan_windows(scene.stft.frame_count(scene.num_samples), scene.plan)
    swapping = ChannelSwappingProvider(oracle, seed=seed)
    sets = [swapping.mask_for_window(c, a, b) for c, (a, b) in enumerate(windows)]
    write_mask_file(scene.mask_path, sets, scene.plan.hop_frames)
    return [swapping.swaps[c] for c in range(len(windows))]
