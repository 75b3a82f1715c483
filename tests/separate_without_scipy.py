"""Run `unmix separate` in masking mode with every scipy import blocked.

    python tests/separate_without_scipy.py

Writes a short 7-channel recording and a mask container to a temporary
directory and runs `main(["separate", ...])` on them with
mask_provider=file:. Exits 0 only if `import unmix.cli` loads no scipy
module and the run exits 0. Needs only numpy and unmix, so it also runs
where scipy is not installed.
"""

import sys
import tempfile
from pathlib import Path


class _BlockScipy:
    """A meta path finder that fails every import of scipy or a submodule."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")
        return None


def main():
    sys.meta_path.insert(0, _BlockScipy())
    import numpy as np

    import unmix.cli

    loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
    if loaded:
        return f"import unmix.cli loaded {loaded}"

    from unmix.masks import MaskSet
    from unmix.signal_io import WaveWriter, write_mask_file
    from unmix.stft import StftConfig
    from unmix.stitcher import WindowPlan, plan_windows

    rng = np.random.default_rng(0)
    rate, samples = 16000, 3 * 16000
    plan, stft = WindowPlan(), StftConfig()
    windows = len(plan_windows(stft.frame_count(samples), plan))
    with tempfile.TemporaryDirectory() as tmp:
        mixture, masks = Path(tmp) / "mixture.wav", Path(tmp) / "masks.umxm"
        with WaveWriter(mixture, rate, 7, samples) as writer:
            writer.write(0.1 * rng.standard_normal((7, samples)))
        sets = [
            MaskSet(
                speech=rng.uniform(0, 1, (2, plan.window_frames, stft.bins)),
                noise=rng.uniform(0, 1, (plan.window_frames, stft.bins)),
            )
            for _ in range(windows)
        ]
        write_mask_file(masks, sets, plan.hop_frames)
        argv = ["separate", str(mixture), str(Path(tmp) / "sep")]
        argv += ["--set", "mode=masking", "--set", f"mask_provider=file:{masks}"]
        code = unmix.cli.main(argv)
    return f"separate exited {code}" if code else 0


if __name__ == "__main__":
    sys.exit(main())
