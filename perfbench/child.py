"""Run one permlab CLI job in this process and record where its time went.

Usage: child.py TIMING_JSON [--trace SPANS_JSONL JOB_ID] -- CLI_ARGS...

The interpreter start and ``import permlab.cli`` form the job's set-up; the
parent process notes the spawn time, this process the end of the import.
Then ``cli.main`` runs and writes its report to the ``-o`` file among
CLI_ARGS.  TIMING_JSON receives the monotonic clock readings, the CPU time
of ``cli.main`` and the peak RSS.  With ``--trace``, the outside tracer wraps
the layers before the job and its spans go to SPANS_JSONL.  The exit code is
the CLI's.
"""

import time

import permlab.cli

IMPORTED = time.monotonic()

import json  # noqa: E402  (after the timed import on purpose)
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def probe() -> dict:
    """numpy, its BLAS and the BLAS thread count in effect in this process."""
    import ctypes
    import glob
    import platform

    import numpy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas['name']} {blas['version']}", "blas_threads": threads}


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        print(json.dumps(probe()))
        return 0
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    timing_path = opts[0]
    tracer = None
    if len(opts) == 4 and opts[1] == "--trace":
        from tracer import Tracer, TracerError
        try:
            tracer = Tracer(job=opts[3])
            tracer.install()
        except TracerError as exc:
            print(f"tracer error: {exc}", file=sys.stderr)
            return 70
    cpu0 = os.times()
    start = time.monotonic()
    rc = permlab.cli.main(cli_args)
    end = time.monotonic()
    cpu = os.times()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"imported": IMPORTED, "start": start, "end": end,
                   "cpu_s": cpu.user + cpu.system - cpu0.user - cpu0.system,
                   "maxrss_kb": usage.ru_maxrss}, fh)
    if tracer is not None:
        tracer.dump(opts[2], start, end)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
