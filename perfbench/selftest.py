#!/usr/bin/env python3
"""Self-test of the benchmark's independent checks on a tiny workload (L=4).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It compiles two L=4 problems through the CLI and runs the benchmark's full
check path on them, which must pass.  Then it corrupts one schedule twice,
once by flipping one `x_mask` bit and once by scaling one block duration,
and requires both the Pauli-frame ledger and the dense oracle to reject
each corrupted copy.  Exit code 0 means every expectation held.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run
import workloads

TINY = workloads.Workload(
    "self-test",
    (workloads.ProblemSpec(4, "ata"), workloads.ProblemSpec(4, "ata", 0.5)),
    ("stats", "verify"),
)


def _flip_bit(block: dict) -> None:
    block["x_mask"][1] = not block["x_mask"][1]


def _scale_duration(block: dict) -> None:
    block["duration"] *= 1.5


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    workdir = run.HERE / "_work" / f"self-test-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = run.child_env()
        tally = run.Tally()
        paths, _, _ = run.setup(TINY, 0, workdir, env)
        samples = run.Samples()
        for path, spec in zip(paths, TINY.problems):
            run.run_problem(path, spec, TINY.followups, workdir, env, samples, tally)
        expect(tally.attempted > 0 and tally.failed == 0,
               f"full check path passes on good schedules ({tally.attempted} checks, {tally.messages})")

        sched = workdir / "good.json"
        res = run.cli(["compile", "--input", str(paths[0]), "--output", str(sched)], workdir, env)
        expect(res.code == 0, "compile of the corruption target")
        problem = json.loads(paths[0].read_text(encoding="utf-8"))
        good = json.loads(sched.read_text(encoding="utf-8"))
        blocks = [i for i, instr in enumerate(good["instructions"]) if "resource_block" in instr]
        longest = max(blocks, key=lambda i: good["instructions"][i]["resource_block"]["duration"])
        for label, mutate in (("flipped x_mask bit", _flip_bit), ("scaled block duration", _scale_duration)):
            bad = copy.deepcopy(good)
            mutate(bad["instructions"][longest]["resource_block"])
            caught = run.Tally()
            run.check_schedule(problem, bad, caught, label)
            expect(caught.attempted == 2 and caught.failed == 2,
                   f"{label}: frame ledger and dense oracle both reject ({caught.messages})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
