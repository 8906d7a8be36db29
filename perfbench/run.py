"""permlab's benchmark: fixed CLI workloads, each job in a fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload actions --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --all                 # every workload, a table
    python3 perfbench/run.py --workload actions --steadiness 5
    python3 perfbench/run.py --freeze              # rewrite expected/ reports

One process drives the load and runs one job at a time (a closed loop with
one client), so BLAS is the only parallelism; it is pinned to one thread
because the dense eigensolver's timing scatters with two.  A run takes every
job once, then repeats jobs while they fit in ``--seconds``, and reports per
job the median over its samples.

With ``--trace 0`` the metrics are end to end:
  wall_s       sum over jobs of the time from the end of import to the report
               being written, at the reference speed (below);
  setup_s      sum over jobs of the time from spawning the interpreter to
               ``import permlab.cli`` finishing, at the reference speed;
  peak_rss_mb  the largest child peak RSS.

A shared host with a few vCPUs can run the same code up to 1.7x slower for
stretches of seconds to minutes, so raw times drift between runs.  Before
every job the driver times one fixed chunk of pure-Python work that does not
touch permlab (``calibrate``).  The two times are scaled by
CALIBRATION_REF_S / (mean chunk time over the run): they read as seconds on
a machine where one chunk takes CALIBRATION_REF_S.  A change to permlab moves
the job times and not the chunk.  The raw sums and the mean chunk time are on
the record line.

With ``--trace 1`` one untraced pass is followed by one pass under the
outside tracer (tracer.py), and the metrics are per layer.  The last line of
standard output is the result as JSON; the line before it records the seed
and the environment.  A job fails on a nonzero exit, a wrong report or a
timeout; failures are counted in ``failed`` out of ``attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TARGETS, TracerError, check_hits, layer_metrics, read_jsonl, summarize
from workloads import EXPECTED_DIR, REFERENCE_JOBS, WORKLOADS, build_jobs, judge

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
DEFAULT_SEED = 0
BLAS_THREADS = "1"
JOB_TIMEOUT_S = 60
RUN_BUDGET_S = 150      # every run, set-up included, ends well within 180 s
TRACER_EXIT = 70        # child.py's exit code when a tracer target is missing
CALIBRATION_REF_S = 0.05  # one calibration chunk at the reference speed

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = list(layer_metrics([], TARGETS))
    return names + ["cli.self_s", "cli.cpu_s", "trace.overhead_s", "trace.coverage"]


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("_calls", ".validations")):
        return "count"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "s"


# -- running one job --------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = BLAS_THREADS
    return env


def run_job(job, seed: int, deadline: float, trace: bool = False) -> dict:
    """Run one job in a fresh interpreter; its timings and every problem."""
    out, timing = WORK / f"{job.name}.json", WORK / f"{job.name}.timing.json"
    spans = WORK / f"{job.name}.spans.jsonl"
    for p in (out, timing, spans):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(timing)]
    if trace:
        cmd += ["--trace", str(spans), job.name]
    cmd += ["--", *job.argv, "--seed", str(seed), "-o", str(out)]
    result = {"job": job.name, "problems": []}
    timeout = min(JOB_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        result["problems"].append("not run: the run's time budget is spent")
        return result
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        result["problems"].append(f"timed out after {timeout:.0f} s")
        return result
    if proc.returncode == TRACER_EXIT and trace:
        raise TracerError(proc.stderr.strip())
    if proc.returncode != 0:
        result["problems"].append(
            f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return result
    t = json.loads(timing.read_text(encoding="utf-8"))
    result.update(setup_s=t["imported"] - spawned, wall_s=t["end"] - t["start"],
                  cpu_s=t["cpu_s"], rss_mb=t["maxrss_kb"] / 1024)
    result["problems"] += judge(job, json.loads(out.read_text(encoding="utf-8")))
    if trace:
        result["trace"] = summarize(read_jsonl(spans))
    return result


def probe_env() -> dict:
    """Interpreter, numpy and BLAS as the jobs see them; also warms the
    bytecode cache so that the first timed job does not compile."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--probe"],
                          env=child_env(), capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S, check=True)
    env = json.loads(proc.stdout)
    env["nproc"] = os.cpu_count()
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    return env


# -- machine speed ----------------------------------------------------------------------

_PERMS = [tuple(random.Random(k).sample(range(12), 12)) for k in range(64)]
_INDEX = {p: i for i, p in enumerate(_PERMS)}


def calibrate() -> float:
    """Seconds taken by one fixed chunk of pure-Python work like permlab's
    (tuple permutations, dict and set lookups, integer arithmetic) that calls
    nothing in permlab, so that a change to the program cannot move it."""
    t0 = time.perf_counter()
    acc = 0
    for r in range(900):
        for k in range(0, 64, 4):
            x = tuple(_PERMS[k][j] for j in _PERMS[(k + r) % 64])
            acc += _INDEX.get(x, 0) + len(set(x))
    for i in range(180_000):
        acc += i * i % 7
    return time.perf_counter() - t0


# -- one run ----------------------------------------------------------------------------

def _median_sum(samples: list[list[dict]], key: str) -> float:
    """Sum over jobs of each job's median over the samples that have key."""
    total = 0.0
    for runs in samples:
        values = [r[key] for r in runs if key in r]
        if values:
            total += statistics.median(values)
    return total


def sample_jobs(jobs, seed: int, seconds: float,
                deadline: float) -> tuple[list[list[dict]], list[float]]:
    """Every job once, in order; then, cycling through the jobs, another
    sample of each job whose last run still fits in ``seconds``.  Cheap jobs
    thus get more samples than the expensive ones, and the run ends on time.
    Also returns the calibration chunk times, one taken before each job."""
    start = time.monotonic()
    samples: list[list[dict]] = [[] for _ in jobs]
    chunks: list[float] = []
    took = [0.0] * len(jobs)

    def run(i: int) -> None:
        t0 = time.monotonic()
        chunks.append(calibrate())
        samples[i].append(run_job(jobs[i], seed, deadline))
        took[i] = time.monotonic() - t0

    for i in range(len(jobs)):
        run(i)
    ran = True
    while ran:
        ran = False
        for i in range(len(jobs)):
            left = min(start + seconds, deadline) - time.monotonic()
            if took[i] <= left:
                run(i)
                ran = True
    return samples, chunks


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    env = probe_env()
    jobs = build_jobs(workload, seed, WORK)
    chunks: list[float] = []
    if trace:
        samples = [[run_job(j, seed, deadline)] for j in jobs]
        traced = [run_job(j, seed, deadline, trace=True) for j in jobs]
    else:
        samples, chunks = sample_jobs(jobs, seed, seconds, deadline)
        traced = []
    everything = [r for runs in samples for r in runs] + traced
    for r in everything:
        for msg in r["problems"]:
            print(f"FAIL {r['job']}: {msg}", file=sys.stderr)
    failed = sum(1 for r in everything if r["problems"])
    if trace:
        metrics = traced_metrics(workload, [runs[0] for runs in samples], traced)
    else:
        chunk_s = statistics.mean(chunks)
        raw = {k: _median_sum(samples, k) for k in ("wall_s", "setup_s")}
        metrics = {k: v * CALIBRATION_REF_S / chunk_s for k, v in raw.items()}
        metrics["peak_rss_mb"] = max(_median_sum([runs], "rss_mb") for runs in samples)
    return {
        "record": {"workload": workload, "seed": seed, "default_seed": DEFAULT_SEED,
                   "seconds": seconds, "trace": int(trace),
                   "run_s": round(time.monotonic() - started, 3), "env": env,
                   **({"raw_wall_s": raw["wall_s"], "raw_setup_s": raw["setup_s"],
                       "calibration_chunk_s": chunk_s,
                       "calibration_ref_s": CALIBRATION_REF_S} if chunks else {}),
                   "jobs": {j.name: {k: [round(r[k], 4) for r in runs if k in r]
                                     for k in ("wall_s", "setup_s")}
                            for j, runs in zip(jobs, samples)}},
        "result": {"correct": failed == 0, "attempted": len(everything),
                   "failed": failed,
                   "metrics": {k: {"value": v, "unit": unit_of(k)}
                               for k, v in metrics.items()}},
    }


def traced_metrics(workload: str, untraced: list[dict], traced: list[dict]) -> dict:
    summaries = [r["trace"] for r in traced if "trace" in r]
    calls: dict[str, int] = {}
    for s in summaries:
        for k, v in s["calls"].items():
            calls[k] = calls.get(k, 0) + v
    check_hits(workload, calls)
    metrics = layer_metrics(summaries)
    main_s = sum(s["wall_s"] for s in summaries)
    covered_s = sum(s["covered_s"] for s in summaries)
    metrics["cli.self_s"] = main_s - covered_s
    metrics["cli.cpu_s"] = sum(r.get("cpu_s", 0.0) for r in untraced)
    metrics["trace.overhead_s"] = (sum(r.get("wall_s", 0.0) for r in traced)
                                   - sum(r.get("wall_s", 0.0) for r in untraced))
    metrics["trace.coverage"] = covered_s / main_s if main_s else 0.0
    return metrics


# -- modes ------------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(workload: str, seed: int, seconds: float, runs: int) -> int:
    """Repeat a workload on seeds seed..seed+runs-1; quartiles per metric,
    and of the raw times before scaling to the reference speed."""
    raw = ("raw_wall_s", "raw_setup_s", "calibration_chunk_s")
    values: dict[str, list[float]] = {k: [] for k in (*END_TO_END, *raw)}
    ok = True
    for k in range(runs):
        out = measure(workload, seed + k, seconds, trace=False)
        ok = ok and out["result"]["correct"]
        for name in values:
            values[name].append(out["record"][name] if name in raw
                                else out["result"]["metrics"][name]["value"])
        print(json.dumps({"seed": seed + k, **{n: round(v[-1], 4)
                                               for n, v in values.items()},
                          "jobs": out["record"]["jobs"]}), flush=True)
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        print(f"{workload:14s} {name:19s} median {med:10.4f} {unit_of(name):3s}"
              f" q1 {q1:10.4f} q3 {q3:10.4f} spread {(q3 - q1) / med:.4f}")
    return 0 if ok else 1


def run_all(seed: int, seconds: float, save: str | None) -> int:
    """Every workload untraced, then traced; one table, optionally saved."""
    results = {}
    for w in WORKLOADS:
        results[w] = {"untraced": measure(w, seed, seconds, trace=False),
                      "traced": measure(w, seed, seconds, trace=True)}
    print(f"{'workload':14s} {'wall_s':>10s} {'setup_s':>10s} {'peak_rss_mb':>12s}"
          f" {'failed_frac':>12s}  (s, s, MB, ratio)")
    ok = True
    for w, r in results.items():
        res = r["untraced"]["result"]
        m = res["metrics"]
        failed = res["failed"] + r["traced"]["result"]["failed"]
        attempted = res["attempted"] + r["traced"]["result"]["attempted"]
        ok = ok and failed == 0
        print(f"{w:14s} {m['wall_s']['value']:10.3f} {m['setup_s']['value']:10.3f}"
              f" {m['peak_rss_mb']['value']:12.1f} {failed / attempted:12.3f}"
              f"  ({failed}/{attempted} jobs failed)")
    if save:
        Path(save).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0 if ok else 1


def freeze(seed: int) -> int:
    """Rewrite expected/ from the current program's reports.  Only for a
    change that is meant to alter reports; review the diff it leaves."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    jobs = REFERENCE_JOBS + [j for w in WORKLOADS for j in build_jobs(w, seed, WORK)
                             if j.expected is not None and not j.ignore]
    for job in jobs:
        out = WORK / f"{job.name}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(WORK / "t.json"), "--",
               *job.argv, "--seed", str(seed), "-o", str(out)]
        subprocess.run(cmd, env=child_env(), check=True, timeout=JOB_TIMEOUT_S)
        shutil.copyfile(out, EXPECTED_DIR / f"{job.expected}.json")
        print(f"froze {job.expected}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS",
                    help="repeat --workload on RUNS seeds and print quartiles")
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--save", help="with --all: write the results here as JSON")
    ap.add_argument("--freeze", action="store_true",
                    help="rewrite the frozen expected reports")
    args = ap.parse_args(argv)
    # a terminated driver unwinds through subprocess.run, which kills its job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "permlab" / "cli.py").is_file():
        print(f"error: no permlab sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.freeze:
            return freeze(args.seed)
        if args.all:
            return run_all(args.seed, args.seconds, args.save)
        if args.workload is None:
            ap.error("--workload is required")
        if args.steadiness:
            return steadiness(args.workload, args.seed, args.seconds, args.steadiness)
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except TracerError as exc:
        print(f"error: tracer: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
