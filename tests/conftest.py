import numpy as np
import pytest

from unmix.signal_io import circular_array
from unmix.stft import Spectrogram, StftConfig


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def geometry():
    return circular_array()


def plane_wave_spectrogram(
    geometry,
    azimuth_deg,
    frames=100,
    config=None,
    sample_rate=16000,
    seed=0,
    amplitude=1.0,
):
    """Synthesize an exact far-field plane wave directly in the STFT domain.

    Each bin carries an independent random source spectrum multiplied by the
    steering vector for the given azimuth; an exact oracle for DOA
    and covariance tests.
    """
    from unmix.masks import steering_vectors

    config = config or StftConfig()
    rng = np.random.default_rng(seed)
    freqs = np.arange(config.bins) * sample_rate / config.fft_size
    steer = steering_vectors(geometry, freqs, [azimuth_deg])[0]  # (F, J)
    source = amplitude * (
        rng.standard_normal((frames, config.bins))
        + 1j * rng.standard_normal((frames, config.bins))
    )
    data = steer.T[:, np.newaxis, :] * source[np.newaxis]  # (J, T, F)
    return Spectrogram(data=data, config=config, sample_rate=sample_rate)
