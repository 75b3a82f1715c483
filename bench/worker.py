"""One benchmark operation: a fresh interpreter that runs `unmix separate`.

    python3 worker.py RESULT.json [--trace TRACE.json] -- separate IN OUT ...

Writes the CLOCK_MONOTONIC readings the parent needs to RESULT.json: when
`unmix.cli` was imported and ready, and when `main([...])` started and
returned. With --trace, the layer functions are wrapped before `main` runs
and the recorded spans are written to TRACE.json once it returns.

The peak RSS is this process's VmHWM, the high-water mark of its own
address space. The parent's os.wait4 cannot give it: Linux carries the
parent's RSS high-water mark into a spawned child's ru_maxrss at exec.
"""

import time
import contextlib
import json
import sys

import unmix.cli

t_ready = time.monotonic()


def main(argv):
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    result_path = own[0]
    trace_path = own[own.index("--trace") + 1] if "--trace" in own else None
    root_span = contextlib.nullcontext()
    if trace_path:
        from spans import Tracer, install_hooks

        tracer = Tracer()
        missing = install_hooks(tracer)
        root_span = tracer.span("cli.main")
    t_start = time.monotonic()
    with root_span:
        code = unmix.cli.main(cli_args)
    t_done = time.monotonic()
    peak_rss_mb = _peak_rss_mb()
    if trace_path:
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans, "missing_hooks": missing}, fh)
    with open(result_path, "w") as fh:
        json.dump(
            {
                "t_ready": t_ready,
                "t_start": t_start,
                "t_done": t_done,
                "exit_code": code,
                "peak_rss_mb": peak_rss_mb,
                "unmix_file": unmix.cli.__file__,
            },
            fh,
        )
    return 0


def _peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # reported in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
