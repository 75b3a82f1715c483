"""Benchmark of `unmix separate`.

    python3 bench/run.py --workload mask_long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the program is imported from
`src/`. The inputs of a workload are generated from --seed. Then, for
--seconds, a closed loop with one client runs one `unmix separate` at a
time, each in a fresh interpreter (`worker.py`), and checks every output.
An operation is started only while it is expected to be half done by --seconds.
An operation whose output fails the check is counted in `failed` and makes
`correct` false, but its timings still count. If no operation finishes,
no result line is printed and the exit code is 1.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, each the median over the operations of the run: `rtf`
(processing seconds per second of audio, from `unmix.cli` imported to
`main` returned), `setup_s` (process spawn to `unmix.cli` imported) and
`peak_rss_mb` (the child's own peak RSS, see worker.py). The lines before
it give the environment, `si_sdri_db` (per-scene best-permutation SI-SDR
improvement over the reference microphone, a correctness floor rather than
a bounded metric, see NOTES.md) and `error_rate`.
With --trace 1, traced and untraced operations alternate; the metrics are
the per-layer ones (spans.LAYER_UNITS), medians over the traced operations,
plus `trace.overhead` (traced / untraced rtf - 1). End-to-end numbers are
never taken from traced operations.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKDIR = BENCH / "_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_SETUP_SAMPLES = 5

END_TO_END_UNITS = {"rtf": "s/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_program():
    """Put the checkout's `src/` first on the path and make sure `unmix` is
    imported from there, not from some installed copy."""
    if not (SRC / "unmix" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'unmix'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import unmix

    if Path(unmix.__file__).resolve().parent != (SRC / "unmix").resolve():
        sys.exit(f"error: unmix imported from {unmix.__file__}, not from {SRC}")


def environment():
    """Machine and software facts that make numbers comparable."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the BLAS numpy loaded, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {l.split()[-1] for l in fh if "openblas" in l.lower() and l.rstrip().endswith(".so")}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class Operation:
    """One spawned worker and what it reported."""

    def __init__(self, argv, workdir, index, trace, timeout):
        self.result_path = workdir / f"op{index}.json"
        self.trace_path = workdir / f"op{index}.trace.json" if trace else None
        self.log_path = workdir / f"op{index}.log"
        cmd = [sys.executable, str(BENCH / "worker.py"), str(self.result_path)]
        if trace:
            cmd += ["--trace", str(self.trace_path)]
        cmd += ["--", *argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(self.log_path, "wb") as log:
            self.t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=workdir)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        self.exit_code = proc.returncode
        self.report = json.loads(self.result_path.read_text()) if self.exit_code == 0 else None

    def error(self):
        if self.report is None:
            tail = self.log_path.read_text(errors="replace").strip().splitlines()[-1:]
            return f"worker exited with {self.exit_code}: {' '.join(tail)}"
        if self.report["exit_code"] != 0:
            return f"unmix separate exited with {self.report['exit_code']}"
        if Path(self.report["unmix_file"]).resolve().parent != (SRC / "unmix").resolve():
            return f"worker imported {self.report['unmix_file']}"
        return None

    @property
    def setup_s(self):
        return self.report["t_ready"] - self.t_spawn

    @property
    def peak_rss_mb(self):
        return self.report["peak_rss_mb"]

    @property
    def separate_s(self):
        return self.report["t_done"] - self.report["t_start"]

    def spans(self):
        return json.loads(self.trace_path.read_text())


def run_workload(name, seed, seconds, trace, started):
    """Generate the inputs, run the closed loop, return (summary, metrics).

    An operation whose output fails the check still ran the program to the
    end, so its timings count; it is counted as failed. An operation whose
    worker did not finish has no timings. `metrics` is empty only when no
    operation finished.
    """
    import numpy as np

    import scenes
    from check import check_outputs
    from spans import LAYER_UNITS, layer_metrics

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORKDIR))
    try:
        scene = scenes.generate(scenes.WORKLOADS[name], seed, workdir)
        untraced, traced, setup, op_seconds = [], [], [], []
        attempted = failed = 0
        t0 = time.monotonic()
        # Start another operation only if it is expected to be at least half
        # done by --seconds, so a run overshoots by at most half an operation.
        while attempted < (2 if trace else 1) or (
            time.monotonic() - t0 + statistics.median(op_seconds) / 2 <= seconds
        ):
            index = attempted
            attempted += 1
            with_trace = trace and index % 2 == 1
            outdir = workdir / f"out{index}"
            timeout = max(RUN_LIMIT_S - (time.monotonic() - started), 1.0)
            t_op = time.monotonic()
            op = Operation(scene.argv(outdir), workdir, index, with_trace, timeout)
            problem = op.error()
            if problem is None:
                check = check_outputs(scene, outdir)
                problem = "; ".join(check.problems) or None
                op.si_sdri_db = check.si_sdri_db
                setup.append(op.setup_s)
                (traced if with_trace else untraced).append(op)
            shutil.rmtree(outdir, ignore_errors=True)
            op_seconds.append(time.monotonic() - t_op)
            if problem is not None:
                failed += 1
                print(f"{name} op {index}: FAILED {problem}", flush=True)
        # each operation sets up once; top up with cheap spawns for a steadier median
        for probe in range(MIN_SETUP_SAMPLES - len(setup)):
            if time.monotonic() - started > RUN_LIMIT_S - 10:
                break
            op = Operation(["print-config"], workdir, f"setup{probe}", False, 10.0)
            if op.error() is None:
                setup.append(op.setup_s)

        summary = {
            "workload": name,
            "seed": seed,
            "audio_s": scene.seconds,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "ops_untraced": len(untraced),
            "ops_traced": len(traced),
        }
        if not untraced or (trace and not traced):
            return summary, {}
        summary["si_sdri_db"] = statistics.median(op.si_sdri_db for op in untraced)
        summary["rtf_samples"] = [op.separate_s / scene.seconds for op in untraced]
        summary["setup_samples"] = setup
        rtf = statistics.median(summary["rtf_samples"])
        values = {
            "rtf": rtf,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(op.peak_rss_mb for op in untraced),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        if trace:
            per_op = [layer_metrics(op.spans()["spans"], scene.swaps) for op in traced]
            traced_rtf = statistics.median(op.separate_s / scene.seconds for op in traced)
            layers = {k: float(np.median([m[k] for m in per_op])) for k in per_op[0]}
            layers["trace.overhead"] = traced_rtf / rtf - 1.0
            summary["missing_hooks"] = traced[0].spans()["missing_hooks"]
            summary["end_to_end"] = values
            metrics = {k: {"value": layers[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
        return summary, metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


def _describe(summary, metrics):
    lines = [f"# {summary['workload']} seed={summary['seed']} audio={summary['audio_s']:g} s "
             f"ops={summary['ops_untraced']} untraced + {summary['ops_traced']} traced, "
             f"failed={summary['failed']}/{summary['attempted']}"]
    for key, m in metrics.items():
        lines.append(f"{key:34s} {m['value']:.6g} {m['unit']}")
    if "si_sdri_db" in summary:
        lines.append(f"{'si_sdri_db':34s} {summary['si_sdri_db']:.6g} dB")
    lines.append(f"{'error_rate':34s} {summary['error_rate']:.6g} 1")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="mask_long, bf_meeting, bf_dereverb or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # turn SIGTERM into SystemExit so the `finally` blocks stop the worker and clean up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_program()
    from scenes import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    print("env " + json.dumps(environment()), flush=True)
    results = {}
    for name in names:
        summary, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace), started)
        started = time.monotonic()
        print(_describe(summary, metrics), flush=True)
        print("summary " + json.dumps(summary), flush=True)
        if not metrics:
            # no operation finished, so there is nothing to measure: no result line
            print(f"error: no operation of {name} finished", file=sys.stderr)
            return 1
        results[name] = {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
