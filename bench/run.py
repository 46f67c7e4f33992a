#!/usr/bin/env python3
"""twistlab benchmark: seeded CLI job mixes run in one closed-loop client.

    python3 bench/run.py --workload groups --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

The run builds the workload's inputs from the seed and checks them with the
library.  Then, pass after pass for ``--seconds``, a fresh interpreter runs
the job list through ``twistlab.cli.run_cli`` one job after another and
hands back each job's time and output, which the run checks.  A fresh
interpreter per pass means nothing the library keeps between calls can carry
over from one pass to the next, and its peak memory is that of the jobs, not
of set-up.  Times are corrected for the speed of the shared machine with a
reference unit of work timed around and during each job (``speed.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``bench/README.md`` for the metrics and workloads.

The library is imported from ``src/`` of the checkout this file sits in; the
run stops with an error, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import jobs as jobs_mod
import spans as spans_mod
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path("bench") / "_work"  # relative to ROOT, so outputs name the same paths

JOB_LIST = "jobs.json"  # the argv of every job, beside the inputs
SETUP_PROBES = 5
SETUP_UNITS = 16  # reference units timed before and after each set-up probe
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_twistlab():
    """Import twistlab from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import twistlab
        import twistlab.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import twistlab from {src}: {exc}") from None
    if not Path(twistlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: twistlab was imported from {twistlab.__file__}, not {src}")
    return twistlab


def set_up(workload: str, seed: int, root: Path):
    """Import the library, write the workload's inputs, check every one."""
    tl = import_twistlab()
    shutil.rmtree(root, ignore_errors=True)
    ws, jobs = jobs_mod.build(workload, seed, str(root))
    ws.verify(tl)
    return tl, jobs


def set_up_timed(args) -> int:
    """Set up as a probe: print the reference units timed meanwhile and the
    seconds they took, for ``probe_setup`` to correct the probe's time."""
    with speed.Sampler() as sampler:
        set_up(args.workload, args.seed, probe_dir(args.workload, args.setup_only))
    print(json.dumps({"units": sampler.samples, "spent": sampler.spent}))
    return 0


def probe_dir(workload: str, k: int) -> Path:
    return WORK / f"{workload}-setup{k}"


def probe_setup(workload: str, seed: int, k: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its inputs being ready,
    as (corrected for the machine's speed, measured).

    The run probes SETUP_PROBES times, one before each of the first passes,
    and reports the median probe."""
    root = probe_dir(workload, k)
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", str(k),
           "--workload", workload, "--seed", str(seed)]
    units = [speed.unit_s() for _ in range(SETUP_UNITS)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    units += [speed.unit_s() for _ in range(SETUP_UNITS)]
    shutil.rmtree(ROOT / root, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
    # The probe times reference units while it sets up; see set_up_timed.
    during = json.loads(proc.stdout.splitlines()[-1])
    return speed.corrected(elapsed - during["spent"], units + during["units"]), elapsed


def rss_mb() -> float:
    """Peak resident memory of this process so far, in MB.

    Read from ``VmHWM``, not ``ru_maxrss``: Linux carries the parent's peak
    across fork and exec into the child's ``ru_maxrss``, so a pass would
    report the memory of the set-up that started it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit("bench: /proc/self/status has no VmHWM line")


def pass_worker(args) -> int:
    """Run every job of the workload's job list once, in this interpreter.

    Writes ``pass<K>.json`` beside the inputs: per job [seconds, exit status,
    output, reference unit times during the job], the unit times before the
    first job and after each job (``edges``), the peak memory once the
    library is imported and the job list read, the peak memory after the
    jobs, and, traced, the per-layer metrics.  A traced pass times no units
    during its jobs, so the spans hold only the library's work; its spans go
    to ``spans-<workload>-seed<n>-pass<K>.jsonl``."""
    tl = import_twistlab()
    work = WORK / args.workload
    argvs = json.loads((work / JOB_LIST).read_text())
    ready_rss = rss_mb()
    tracer = spans_mod.Tracer() if args.trace else None
    results = []
    edges = [speed.edge_units()]
    if tracer is not None:
        tracer.install()
    try:
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.job = i
            with speed.Sampler(active=tracer is None) as sampler:
                try:
                    status, text = tl.cli.run_cli(argv)
                except Exception:  # a crash is a failed job, not a failed benchmark
                    status, text = -1, traceback.format_exc()
            results.append([sampler.seconds, status, text, sampler.samples])
            edges.append(speed.edge_units())
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"jobs": results, "edges": edges, "ready_rss_mb": ready_rss, "peak_rss_mb": rss_mb()}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}-pass{args.pass_worker}.jsonl")
    (work / f"pass{args.pass_worker}.json").write_text(json.dumps(out))
    return 0


def run_pass(args, k: int, traced: bool) -> dict:
    """Run pass ``k`` in a fresh interpreter; returns what it wrote."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--pass-worker", str(k),
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: pass {k} failed:\n{proc.stderr}")
    path = WORK / args.workload / f"pass{k}.json"
    result = json.loads(path.read_text())
    path.unlink()
    return result


def per_job_median(times: list[list[float]]) -> list[float]:
    """Each job's median time over the passes, each pass in its own interpreter."""
    return [statistics.median(ts) for ts in times]


def tail(samples: list[float], n_jobs: int) -> tuple[float, float]:
    """(value, percentile): the highest percentile of a list of ``n_jobs``
    jobs that has TAIL_BEYOND jobs beyond it, read by nearest rank from
    ``samples``, the job times of every pass pooled."""
    ordered = sorted(samples)
    below = max(n_jobs - TAIL_BEYOND, 1)
    rank = -(-below * len(ordered) // n_jobs)
    return ordered[rank - 1], 100.0 * below / n_jobs


def run_workload(args) -> int:
    _, jobs = set_up(args.workload, args.seed, WORK / args.workload)
    (WORK / args.workload / JOB_LIST).write_text(json.dumps([j.argv for j in jobs]))
    digests = jobs_mod.load_digests(args.workload, args.seed)

    # Per job and pass: corrected times, traced and untraced, and measured
    # untraced times.
    job_times = {False: [[] for _ in jobs], True: [[] for _ in jobs]}
    raw_times = [[] for _ in jobs]
    unit_times = []
    layer_runs, ready_rss, peak_rss = [], [], []
    attempted = failed = 0
    first_problem = None
    begin = time.perf_counter()
    n_pass = 0
    setup_times = []
    while True:
        if not args.trace and n_pass < SETUP_PROBES:
            # Spread over the run, so one stretch of machine noise cannot
            # slow every set-up; probe time is not part of the measured time.
            t_probe = time.perf_counter()
            setup_times.append(probe_setup(args.workload, args.seed, n_pass))
            begin += time.perf_counter() - t_probe
        traced = bool(args.trace) and n_pass % 2 == 1
        t_pass = time.perf_counter()
        result = run_pass(args, n_pass, traced)
        pass_s = time.perf_counter() - t_pass
        if traced:
            layer_runs.append(result["layers"])
        else:
            ready_rss.append(result["ready_rss_mb"])
            peak_rss.append(result["peak_rss_mb"])
        edges = result["edges"]
        for i, (t, _, _, during) in enumerate(result["jobs"]):
            job_times[traced][i].append(speed.corrected(t, edges[i] + during + edges[i + 1]))
            if not traced:
                raw_times[i].append(t)
                unit_times += during
        for i, (_, status, text, _) in enumerate(result["jobs"]):
            problems = jobs_mod.check_job(jobs[i], status, text, digests)
            if problems:
                failed += 1
                first_problem = first_problem or f"{jobs[i].id}: {'; '.join(problems)}"
        attempted += len(jobs)
        n_pass += 1
        elapsed = time.perf_counter() - begin
        needed = 2 if args.trace else 1
        if n_pass >= needed and elapsed + pass_s > args.seconds:
            break
    measured = time.perf_counter() - begin
    while not args.trace and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(args.workload, args.seed, len(setup_times)))

    correct = failed == 0
    if first_problem:
        print(f"first failure: {first_problem}", file=sys.stderr)
    checked = sum(1 for j in jobs if j.id in digests)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, {n_pass} passes "
          f"in {measured:.1f} s; {checked} of {len(jobs)} jobs "
          f"digest-checked; fail_frac {failed / attempted:.4f} ({failed} of {attempted})")

    if args.trace:
        metrics = {}
        for name in layer_runs[0]:
            values = [run[name] for run in layer_runs]
            if name in spans_mod.TIMED:
                metrics[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    print(f"per-layer count {name} differs between traced passes: {values}",
                          file=sys.stderr)
                    correct = False
                metrics[name] = values[0]
        metrics["trace.overhead_frac"] = (
            sum(per_job_median(job_times[True])) / sum(per_job_median(job_times[False]))
            - 1.0
        )
        print(f"spans of {len(layer_runs)} traced passes written to "
              f"{WORK}/spans-{args.workload}-seed{args.seed}-pass<K>.jsonl")
        units = spans_mod.PER_LAYER
    else:
        per_job = per_job_median(job_times[False])
        pooled = [t for ts in job_times[False] for t in ts]
        tail_value, tail_pct = tail(pooled, len(jobs))
        metrics = {
            "wall_s": sum(per_job),
            "job_s.p50": statistics.median(pooled),
            "job_s.tail": tail_value,
            "peak_rss_mb": statistics.median(peak_rss),
            "setup_s": statistics.median([c for c, _ in setup_times]),
        }
        units = END_TO_END
        raw = [t for ts in raw_times for t in ts]
        print(f"times are corrected to the reference unit's nominal "
              f"{speed.NOMINAL_S * 1e3:.3f} ms; during the jobs it took "
              f"{statistics.median(unit_times) * 1e3:.3f} ms (median of {len(unit_times)})")
        print(f"as measured: wall_s {sum(per_job_median(raw_times)):.4f} s, "
              f"job_s.p50 {statistics.median(raw):.6f} s, "
              f"job_s.tail {tail(raw, len(jobs))[0]:.6f} s, setup_s "
              f"{statistics.median([m for _, m in setup_times]):.4f} s")
        print(f"job_s.p50 and job_s.tail (p{tail_pct:.1f}: {len(jobs)} jobs, "
              f"{TAIL_BEYOND} beyond it) are read from the {len(pooled)} job times "
              f"of all {len(pooled) // len(jobs)} passes")
        print(f"peak_rss_mb is the median of the passes' peaks; "
              f"{statistics.median(ready_rss):.1f} MB of it was reached before the first job")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in jobs_mod.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w}/{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", type=int, metavar="K", help=argparse.SUPPRESS)
    p.add_argument("--pass-worker", type=int, metavar="K", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_only is not None:
        return set_up_timed(args)
    if args.pass_worker is not None:
        return pass_worker(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
