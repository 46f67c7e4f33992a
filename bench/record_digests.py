#!/usr/bin/env python3
"""Record the output digests the benchmark's byte-identity check compares to.

    python3 bench/record_digests.py

Runs every job of each workload once for each of the seeds 0-31, refuses to
record if any job fails its oracle checks, and writes ``bench/digests.json``.  A job whose
output is the same for every recorded seed is stored once under ``any`` and
checked for every seed; the others (orientation signs, fundamental-class
coefficients and induced-map matrices depend on the simplex order) are
stored per seed and checked only for recorded seeds.

Record from the commit whose outputs are the reference; a later change must
reproduce them byte for byte.
"""

from __future__ import annotations

import json
import os
import sys

import jobs as jobs_mod
import run

SEEDS = range(32)


def record(workload: str) -> dict:
    by_job: dict[str, dict[str, str]] = {}
    for seed in SEEDS:
        tl, jobs = run.set_up(workload, seed, run.WORK / workload)
        for job in jobs:
            status, text = tl.cli.run_cli(job.argv)
            problems = jobs_mod.check_job(job, status, text, {})
            if problems:
                raise SystemExit(f"{workload} seed {seed} {job.id}: {'; '.join(problems)}")
            by_job.setdefault(job.id, {})[str(seed)] = jobs_mod.digest(text)
        print(f"{workload}: seed {seed} recorded", file=sys.stderr)
    table: dict = {"any": {}, "seeds": {}}
    for jid, per_seed in by_job.items():
        if len(set(per_seed.values())) == 1:
            table["any"][jid] = next(iter(per_seed.values()))
        else:
            for seed, d in per_seed.items():
                table["seeds"].setdefault(seed, {})[jid] = d
    return table


def main() -> int:
    os.chdir(run.ROOT)
    table = {w: record(w) for w in jobs_mod.WORKLOADS}
    jobs_mod.DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
