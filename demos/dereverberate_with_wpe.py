"""Dereverberate a single talker with weighted-prediction-error filtering.

Renders a strongly reverberant 7-channel capture of one talker, runs the
streaming WPE dereverberator (the first context solved as one block, then
filters re-estimated once per second on a trailing context), and scores
the reference channel before and after against the
direct-plus-early-reflections signal. Linear-prediction dereverberation
preserves the direct path and early reflections by design, so that is the
reference it is judged against.

Run from the repository root:

    python3 demos/dereverberate_with_wpe.py
"""

import numpy as np
import scipy.signal

from unmix.dereverb import WpeConfig, wpe_stream
from unmix.metrics import si_sdr
from unmix.signal_io import MultichannelWave, circular_array
from unmix.simulator import RoomSpec, image_method_rirs, speech_like_source
from unmix.stft import analyze, synthesize

FS = 16000
EARLY_SECONDS = 0.05  # keep 50 ms past the direct-path peak as "early"


def main():
    room = RoomSpec(
        dimensions=[6.0, 5.0, 3.0],
        t60=0.5,
        source_positions=[[1.5, 2.5, 1.5]],
        array_center=[3.5, 3.0, 1.4],
    )
    geometry = circular_array()
    mics = geometry.positions + room.array_center
    src = speech_like_source(6.0, FS, seed=7)

    print(f"rendering RIRs for T60 = {room.t60} s...")
    rirs = image_method_rirs(room, room.source_positions[0], mics, FS)
    captured = np.stack(
        [scipy.signal.fftconvolve(src, h)[: len(src)] for h in rirs]
    )  # (J, samples)

    # Direct-plus-early reference at the reference microphone.
    early = rirs[geometry.reference_index].copy()
    peak = int(np.argmax(np.abs(early)))
    early[peak + int(EARLY_SECONDS * FS) :] = 0.0
    early_ref = scipy.signal.fftconvolve(src, early)[: len(src)]

    config = WpeConfig()
    print(
        f"streaming WPE: {config.taps} taps, delay {config.delay}, "
        f"{config.iterations} iterations; the first {config.context:.0f} s "
        f"solved as one block, then filters updated every "
        f"{config.update_interval:.0f} s on the trailing {config.context:.0f} s"
    )
    spec = analyze(MultichannelWave(captured, FS))
    out = synthesize(wpe_stream(spec, config))
    n = out.samples.shape[1]

    before = si_sdr(captured[geometry.reference_index, :n], early_ref[:n])
    after = si_sdr(out.samples[0], early_ref[:n])
    print(f"SI-SDR vs direct-plus-early reference, before: {before:6.2f} dB")
    print(f"SI-SDR vs direct-plus-early reference, after:  {after:6.2f} dB")
    print(f"improvement: {after - before:+.2f} dB")


if __name__ == "__main__":
    main()
