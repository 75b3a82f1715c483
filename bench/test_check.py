"""The output checker accepts real `unmix separate` output and rejects it
once the two streams are swapped halfway through.

    python3 -m pytest bench/test_check.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scipy.io.wavfile  # noqa: E402

import scenes  # noqa: E402
from check import check_outputs  # noqa: E402
from unmix.cli import main as cli_main  # noqa: E402

# mask_long in miniature: two 10 s scenes, masks from a file with head swaps
TINY = dataclasses.replace(scenes.WORKLOADS["mask_long"], name="tiny_mask", scenes=2, rooms=1)


@pytest.fixture(scope="module")
def separated(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("tiny")
    scene = scenes.generate(TINY, 7, workdir)
    assert any(scene.swaps), "the mask file should carry injected head swaps"
    outdir = workdir / "out"
    assert cli_main(scene.argv(outdir)) == 0
    return scene, outdir


def test_real_output_passes(separated):
    scene, outdir = separated
    result = check_outputs(scene, outdir)
    assert result.ok, result.problems
    assert result.si_sdri_db >= TINY.si_sdri_floor_db


def test_streams_swapped_halfway_fail(separated, tmp_path):
    scene, outdir = separated
    streams = [scipy.io.wavfile.read(outdir / f"out{i}.wav")[1] for i in (0, 1)]
    half = scene.num_samples // 2
    corrupted = [np.concatenate([streams[i][:half], streams[1 - i][half:]]) for i in (0, 1)]
    for i in (0, 1):
        scipy.io.wavfile.write(tmp_path / f"out{i}.wav", 16000, corrupted[i])
    result = check_outputs(scene, tmp_path)
    assert not result.ok
    assert any("heads swapped" in p for p in result.problems), result.problems


def test_wrong_length_fails(separated, tmp_path):
    scene, outdir = separated
    for i in (0, 1):
        _, data = scipy.io.wavfile.read(outdir / f"out{i}.wav")
        scipy.io.wavfile.write(tmp_path / f"out{i}.wav", 16000, data[:-1])
    assert not check_outputs(scene, tmp_path).ok
