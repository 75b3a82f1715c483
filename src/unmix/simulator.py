"""Multichannel scene simulation: image-method room impulse responses,
spherical isotropic noise, and two-speaker mixtures with ground truth."""

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .signal_io import SPEED_OF_SOUND, ArrayGeometry, MultichannelWave, circular_array

SINC_TAPS = 81  # fractional-delay interpolation length (odd)
RIR_PRE_DELAY = SINC_TAPS // 2  # samples; all impulse responses share this shift

CONFIGURATIONS = ("single", "sequential", "partial_overlap", "contained_overlap")


@dataclass
class RoomSpec:
    """Shoebox room with an array and up to two sources inside it."""

    dimensions: np.ndarray  # (3,) meters
    t60: float  # seconds; 0 = anechoic
    source_positions: np.ndarray  # (K, 3) meters
    array_center: np.ndarray  # (3,) meters
    array_geometry: ArrayGeometry = field(default_factory=circular_array)

    def __post_init__(self):
        self.dimensions = np.asarray(self.dimensions, dtype=np.float64)
        self.source_positions = np.atleast_2d(
            np.asarray(self.source_positions, dtype=np.float64)
        )
        self.array_center = np.asarray(self.array_center, dtype=np.float64)
        numbers = [self.t60, *self.dimensions, *self.array_center]
        numbers += [*self.source_positions.ravel(), *self.array_geometry.positions.ravel()]
        if not np.all(np.isfinite(numbers)):
            raise ValueError("room dimensions, t60, positions and array geometry must be finite")
        if self.t60 < 0:
            raise ValueError("t60 must be nonnegative")
        for pos in self.source_positions:
            if np.any(pos <= 0) or np.any(pos >= self.dimensions):
                raise GeometryError(f"source at {pos} is outside the room")
        mics = self.mic_positions()
        if np.any(mics <= 0) or np.any(mics >= self.dimensions):
            raise GeometryError("array extends outside the room")

    def mic_positions(self):
        return self.array_center + self.array_geometry.positions


@dataclass
class MixtureSpec:
    """Mixing recipe: overlap configuration, levels, noise and length."""

    configuration: str = "partial_overlap"
    utterance_gains_db: tuple = (0.0, 0.0)
    noise_snr_db: float = 20.0  # None or inf disables noise
    clip_seconds: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if not np.all(np.isfinite([self.clip_seconds, *self.utterance_gains_db])):
            raise ValueError("clip_seconds and utterance_gains_db must be finite")
        if self.noise_snr_db is not None and not self.noise_snr_db > -np.inf:  # NaN fails too
            raise ValueError(f"noise_snr_db must be finite, inf or None, got {self.noise_snr_db}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.configuration not in CONFIGURATIONS:
            raise ValueError(
                f"unknown configuration {self.configuration!r}; expected one of {CONFIGURATIONS}"
            )
        if self.clip_seconds <= 0 or self.clip_seconds > 10.0:
            raise ValueError("clip_seconds must be in (0, 10]")


@dataclass
class GroundTruth:
    """Everything needed for oracle masks and evaluation of one scene."""

    utterance_images_ref: np.ndarray  # (K, samples) at the reference mic
    utterance_images: np.ndarray  # (K, J, samples) at every mic
    direct_images_ref: np.ndarray  # (K, samples) direct path only, reference mic
    channel_sources_ref: np.ndarray  # (2, samples) superimposed per output channel
    noise: np.ndarray  # (J, samples)
    assignment: tuple  # utterance k -> output channel
    activity: tuple  # per utterance (start_sample, end_sample)
    sample_rate: int = 16000


def _fractional_delay_kernel(delays_samples):
    """Windowed-sinc interpolation kernels for fractional sample delays.

    delays_samples: (N,) nonnegative; returns (indices (N, taps), values)."""
    delays = np.asarray(delays_samples, dtype=np.float64)
    center = np.floor(delays).astype(np.int64)
    half = SINC_TAPS // 2
    offsets = np.arange(-half, half + 1)
    idx = center[:, np.newaxis] + offsets[np.newaxis, :]
    arg = idx - delays[:, np.newaxis]
    window = 0.5 * (1.0 + np.cos(np.pi * arg / (half + 1)))
    window[np.abs(arg) > half + 1] = 0.0
    return idx, np.sinc(arg) * window


def _wall_reflectance(room):
    """Uniform wall reflection coefficient giving a -60 dB decay at T60.

    The shoebox image lattice decays as the spherical average of
    beta^(2 c t q(u)) with q(u) = sum_i |u_i| / L_i (wall hits per meter in
    direction u); grazing directions decay slower than Eyring's mean-free-path
    estimate, so beta is found by bisection instead. T60 is measured on the
    Schroeder energy decay curve (integrated remaining energy), so the target
    is EDC(T60) = -60 dB with each direction's exponential integrated in
    closed form.
    """
    if room.t60 == 0:
        return 0.0
    directions = fibonacci_sphere(512)
    hits_per_meter = np.sum(np.abs(directions) / room.dimensions, axis=1)
    distance = SPEED_OF_SOUND * room.t60

    def edc_db(log_beta):
        rates = -2.0 * hits_per_meter * log_beta  # per-direction decay rate
        # int_t^inf exp(-r tau) dtau = exp(-r t) / r
        remaining = np.sum(np.exp(-rates * distance) / rates)
        return 10.0 * np.log10(remaining / np.sum(1.0 / rates))

    lo, hi = -2.0, -1e-6  # log(beta) bracket
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if edc_db(mid) < -60.0:
            lo = mid
        else:
            hi = mid
    return float(np.exp(0.5 * (lo + hi)))


def _image_sources(room, source, max_dist, beta):
    """Image-source positions and reflection orders within max_dist of the room."""
    dims = room.dimensions
    if beta == 0.0:
        return source[np.newaxis, :], np.zeros(1)
    n_max = [int(np.ceil(max_dist / (2.0 * d))) + 1 for d in dims]
    parts = []
    order_parts = []
    for axis in range(3):
        m = np.arange(-n_max[axis], n_max[axis] + 1)[:, np.newaxis]  # (M, 1)
        p = np.array([0, 1])[np.newaxis, :]  # (1, 2)
        coord = (1 - 2 * p) * source[axis] + 2 * m * dims[axis]
        order = np.abs(m - p) + np.abs(m)
        parts.append(coord.ravel())
        order_parts.append(order.ravel())
    cx, cy, cz = np.meshgrid(parts[0], parts[1], parts[2], indexing="ij")
    ox, oy, oz = np.meshgrid(
        order_parts[0], order_parts[1], order_parts[2], indexing="ij"
    )
    positions = np.stack([cx.ravel(), cy.ravel(), cz.ravel()], axis=1)
    orders = (ox + oy + oz).ravel()
    # crude pre-cull against the room center; per-mic distances re-filter below
    center_dist = np.linalg.norm(positions - room.dimensions / 2.0, axis=1)
    keep = center_dist <= max_dist + float(np.linalg.norm(room.dimensions))
    return positions[keep], orders[keep]


def image_method_rirs(room, source, mics, sample_rate=16000, direct_only=False):
    """Image-method impulse responses from `source` to each mic, (J, length).

    Anechoic rooms (t60 = 0) reduce to a single fractional-delay impulse with
    1/(4 pi r) attenuation. Fractional delays for the direct path and early
    images use an 81-tap windowed sinc; the dense late tail (images more than
    100 ms behind the direct path) uses energy-preserving linear interpolation
    instead, which is indistinguishable there and orders of magnitude cheaper.
    All responses carry a fixed RIR_PRE_DELAY-sample shift so the sinc tails
    fit.
    """
    source = np.asarray(source, dtype=np.float64)
    mics = np.atleast_2d(np.asarray(mics, dtype=np.float64))
    if np.any(source <= 0) or np.any(source >= room.dimensions):
        raise GeometryError(f"source at {source} is outside the room")
    fs = sample_rate
    beta = 0.0 if direct_only else _wall_reflectance(room)
    direct_dist = float(np.max(np.linalg.norm(source - mics, axis=1)))
    if beta == 0.0:
        max_dist = direct_dist
    else:
        # 30% margin past T60 so the -60 dB point is decay, not truncation
        max_dist = 1.3 * SPEED_OF_SOUND * room.t60 + direct_dist
    rir_len = int(np.ceil(max_dist / SPEED_OF_SOUND * fs)) + SINC_TAPS
    positions, orders = _image_sources(room, source, max_dist, beta)
    near_dist = direct_dist + 0.1 * SPEED_OF_SOUND
    rirs = np.zeros((len(mics), rir_len))
    for m, mic in enumerate(mics):
        dists = np.linalg.norm(positions - mic, axis=1)
        keep = dists <= max_dist
        d, o = dists[keep], orders[keep]
        amps = (beta**o if beta else 1.0) / (4.0 * np.pi * np.maximum(d, 1e-3))
        delays = d / SPEED_OF_SOUND * fs + RIR_PRE_DELAY
        near = d <= near_dist
        idx, kernels = _fractional_delay_kernel(delays[near])
        values = (amps[near][:, np.newaxis] * kernels).ravel()
        flat_idx = idx.ravel()
        valid = (flat_idx >= 0) & (flat_idx < rir_len)
        rirs[m] = np.bincount(
            flat_idx[valid], weights=values[valid], minlength=rir_len
        )
        if np.any(~near):
            far_delays = delays[~near]
            base = np.floor(far_delays).astype(np.int64)
            frac = far_delays - base
            # rescale so each image keeps unit energy despite the 2-tap split
            scale = amps[~near] / np.sqrt((1.0 - frac) ** 2 + frac**2)
            both_idx = np.concatenate([base, base + 1])
            both_val = np.concatenate([(1.0 - frac) * scale, frac * scale])
            valid = (both_idx >= 0) & (both_idx < rir_len)
            rirs[m] += np.bincount(
                both_idx[valid], weights=both_val[valid], minlength=rir_len
            )
    return rirs


def image_method_rir(room, source, mic, sample_rate=16000, direct_only=False):
    """Single source-to-mic impulse response; see image_method_rirs."""
    return image_method_rirs(room, source, [mic], sample_rate, direct_only)[0]


def fibonacci_sphere(count):
    """Nearly uniform unit directions on the sphere."""
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


def isotropic_noise(geometry, seconds, sample_rate=16000, seed=0):
    """Spherically isotropic noise at the array, unit variance per channel.

    Superimposes independent white plane waves from Fibonacci-sphere
    directions, each delayed per microphone in the frequency domain.
    """
    if geometry.channel_count < 2:
        raise ValueError("isotropic noise needs at least two microphones")
    rng = np.random.default_rng(seed)
    n = int(round(seconds * sample_rate))
    dirs = fibonacci_sphere(64)  # (D, 3)
    # arrival-time advance per mic for a plane wave from direction u
    delays = -(dirs @ geometry.positions.T) / SPEED_OF_SOUND  # (D, J) seconds
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    out = np.zeros((geometry.channel_count, len(freqs)), dtype=np.complex128)
    for delay in delays:
        spectrum = np.fft.rfft(rng.standard_normal(n))
        out += spectrum * np.exp(-2.0j * np.pi * freqs * delay[:, np.newaxis])
    samples = np.fft.irfft(out, n=n, axis=1)
    samples /= np.std(samples, axis=1, keepdims=True)
    return MultichannelWave(samples=samples, sample_rate=sample_rate)


def _placement(config, lengths, clip_samples, rng):
    """Start offsets per utterance for the requested overlap configuration."""
    l0 = min(lengths[0], clip_samples)
    if config == "single":
        return [0]
    l1 = min(lengths[1], clip_samples)
    if config == "sequential":
        gap = int(rng.integers(0, max(clip_samples - l0 - l1, 1)))
        return [0, min(l0 + gap, clip_samples - 1)]
    if config == "partial_overlap":
        lo, hi = max(l0 // 4, 1), max(3 * l0 // 4, 2)
        return [0, int(rng.integers(lo, hi))]
    # contained_overlap: the second utterance sits fully inside the first
    margin = max(l0 - l1, 1)
    return [0, int(rng.integers(0, margin))]


def make_mixture(mix_spec, room, sources, sample_rate=16000):
    """Render a scene: reverberate, place, mix, and add isotropic noise.

    sources: list of 1 or 2 single-channel waves (numpy arrays). Returns
    (MultichannelWave mixture, GroundTruth); the ground-truth images plus the
    noise track reconstruct the mixture exactly.
    """
    import scipy.signal  # here, not at the top: separate and evaluate run without scipy

    k = len(sources)
    if mix_spec.configuration == "single":
        if k != 1:
            raise ValueError("'single' configuration takes exactly one source")
    elif k != 2:
        raise ValueError(f"{mix_spec.configuration!r} configuration needs two sources")
    if k > len(room.source_positions):
        raise ValueError("room does not define enough source positions")
    rng = np.random.default_rng(mix_spec.seed)
    fs = sample_rate
    clip = int(round(mix_spec.clip_seconds * fs))
    mics = room.mic_positions()
    j = len(mics)
    ref = room.array_geometry.reference_index

    starts = _placement(
        mix_spec.configuration, [len(s) for s in sources], clip, rng
    )
    images = np.zeros((k, j, clip))
    direct_ref = np.zeros((k, clip))
    activity = []
    for ki, src in enumerate(sources):
        gain = 10.0 ** (mix_spec.utterance_gains_db[ki] / 20.0)
        src = np.asarray(src, dtype=np.float64) * gain
        start = starts[ki]
        src = src[: clip - start]
        activity.append((start, start + len(src)))
        rirs = image_method_rirs(room, room.source_positions[ki], mics, fs)
        for m in range(j):
            img = scipy.signal.fftconvolve(src, rirs[m])[: clip - start]
            images[ki, m, start : start + len(img)] += img
        rir_direct = image_method_rir(
            room, room.source_positions[ki], mics[ref], fs, direct_only=True
        )
        dimg = scipy.signal.fftconvolve(src, rir_direct)[: clip - start]
        direct_ref[ki, start : start + len(dimg)] += dimg

    speech = images.sum(axis=0)  # (J, clip)
    if mix_spec.noise_snr_db is None or np.isinf(mix_spec.noise_snr_db):
        noise = np.zeros((j, clip))
    else:
        noise_wave = isotropic_noise(
            room.array_geometry, clip / fs, fs, seed=mix_spec.seed + 1
        )
        noise = noise_wave.samples[:, :clip]
        speech_power = np.mean(speech[ref] ** 2)
        noise_power = np.mean(noise[ref] ** 2)
        target = speech_power / 10.0 ** (mix_spec.noise_snr_db / 10.0)
        noise = noise * np.sqrt(target / max(noise_power, 1e-30))

    mixture = speech + noise
    assignment = tuple(range(k))
    channel_sources = np.zeros((2, clip))
    for ki in range(k):
        channel_sources[assignment[ki]] += images[ki, ref]
    truth = GroundTruth(
        utterance_images_ref=images[:, ref].copy(),
        utterance_images=images,
        direct_images_ref=direct_ref,
        channel_sources_ref=channel_sources,
        noise=noise,
        assignment=assignment,
        activity=tuple(activity),
        sample_rate=fs,
    )
    return MultichannelWave(samples=mixture, sample_rate=fs), truth


def speech_like_source(seconds, sample_rate=16000, seed=0):
    """Synthetic speech-like test signal: pink noise with syllabic modulation."""
    rng = np.random.default_rng(seed)
    n = int(round(seconds * sample_rate))
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    shaping = 1.0 / np.sqrt(np.maximum(freqs, 50.0))
    pink = np.fft.irfft(spectrum * shaping, n=n)
    # 2-6 Hz random envelope, always positive so activity never fully gates off
    env_rate = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n) / sample_rate
    envelope = 0.55 + 0.45 * np.sin(2.0 * np.pi * env_rate * t + phase)
    out = pink * envelope
    return out / np.max(np.abs(out))
