#!/usr/bin/env python3
"""Benchmark of the daqcompile command line: compile, stats and verify.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload even-large --seed 1 --seconds 40 --trace 0

The benchmark writes seeded problem files, then runs the CLI
(`python -m daqcompile.cli` with `src/` on the path) as child processes,
one at a time: a closed loop with one client.  Every output is checked by
code that shares nothing with the compiler (see checks.py).  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs the
traced in-process pipeline instead (see tracing.py) and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 2     # the second pass proves byte-identical output

# A fixed workload of the benchmark's own, with the profile of a CLI child
# (start-up, NumPy import, many small Python objects), run as a child process
# between problems.  Its median time tells how fast the shared machine is
# during this run.  Times are reported rescaled to the speed at which it takes
# REFERENCE_S, which cancels the slow and fast periods that move all timings
# on a shared machine by 20-30 %.  Neither the program nor its inputs touch it.
REFERENCE = r"""
import json, numpy
rows = [{"q": i % 97, "gate": "h", "v": (i * 0.5, i & 7)} for i in range(60000)]
back = json.loads(json.dumps(rows))
d = {}
for r in back:
    d.setdefault(r["q"], []).append(format(r["v"][0], ".17g"))
sorted("".join(v) for v in d.values())
"""
REFERENCE_S = 0.45
REFERENCE_EVERY_S = 2.0

END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "stats_s": "s",
    "problems_per_s": "1/s",
    "peak_rss_mb": "MB",
    "schedule_mb": "MB",
    "analog_requests": "count",
    "resource_blocks": "count",
    "sqr_gates": "count",
    "total_analog_time": "a.u.",
}


class Tally:
    """Attempted and failed commands and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok


@dataclass
class Child:
    seconds: float
    rss_mb: float
    code: int
    stdout: str


@dataclass
class Samples:
    times: dict[str, list[float]] = field(default_factory=lambda: {"compile": [], "stats": [], "verify": []})
    problem_s: list[float] = field(default_factory=list)     # all commands of one problem
    rss_mb: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=lambda: {
        "analog_requests": 0, "resource_blocks": 0, "sqr_gates": 0, "total_analog_time": 0.0,
        "reference_5L_minus_12": 0, "requests_on_even_ata": 0})
    first: dict[str, dict] = field(default_factory=dict)     # per problem: output digests of pass 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], workdir: Path, env: dict) -> Child:
    """Run one child process to completion; wall time and ru_maxrss from wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text(encoding="utf-8"))


def cli(args: list[str], workdir: Path, env: dict) -> Child:
    return run_child(["-m", "daqcompile.cli", *args], workdir, env)


def setup(workload: workloads.Workload, seed: int, workdir: Path, env: dict):
    """Generate the problem files and warm the import, several times; median time."""
    times, rss = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        paths = workloads.write_problems(workload, seed, workdir)
        warm = run_child(["-c", "import daqcompile.cli"], workdir, env)
        times.append(time.perf_counter() - t0)
        rss.append(warm.rss_mb)
        if warm.code != 0:
            raise SystemExit(f"perfbench: cannot import daqcompile from {SRC} (exit {warm.code})")
    return paths, statistics.median(times), max(rss)


def _stats_machine(stdout: str) -> dict:
    """The canonical JSON that `stats` prints after its '---' line."""
    _, sep, tail = stdout.partition("---\n")
    return json.loads(tail) if sep else {}


def check_schedule(problem: dict, doc: dict, tally: Tally, name: str) -> None:
    try:
        failures = checks.frame_ledger(problem, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        failures = [f"malformed schedule: {exc!r}"]
    tally.check(not failures, f"{name}: frame ledger: {failures[:3]}")
    if problem["num_qubits"] <= 8:
        try:
            failure = checks.dense_check(problem, doc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            failure = f"malformed schedule: {exc!r}"
        tally.check(failure is None, f"{name}: {failure}")


def run_problem(path: Path, spec: workloads.ProblemSpec, followups, workdir: Path, env: dict,
                samples: Samples, tally: Tally) -> None:
    """Compile one problem, run its follow-ups, check everything."""
    sched = workdir / f"{path.stem}.schedule.json"
    first = path.name not in samples.first
    ref = samples.first.setdefault(path.name, {})
    res = cli(["compile", "--input", str(path), "--output", str(sched)], workdir, env)
    samples.rss_mb.append(res.rss_mb)
    if not tally.check(res.code == 0, f"{path.name}: compile exited {res.code}"):
        return
    samples.times["compile"].append(res.seconds)
    total = res.seconds
    data = sched.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if first:
        ref["sha256"] = digest
        samples.sizes.append(len(data))
        problem = json.loads(path.read_text(encoding="utf-8"))
        doc = json.loads(data)
        del data
        check_schedule(problem, doc, tally, path.name)
        own = checks.schedule_counts(doc)
        meta = doc.get("metadata", {}).get("stats", {})
        del doc
        q = samples.quality
        q["analog_requests"] += meta.get("analog_requests") or 0
        for key in ("resource_blocks", "sqr_gates", "total_analog_time"):
            q[key] += own[key]
        if spec.kind == "ata" and spec.num_qubits % 2 == 0:
            q["reference_5L_minus_12"] += 5 * spec.num_qubits - 12
            q["requests_on_even_ata"] += meta.get("analog_requests") or 0
    else:
        tally.check(digest == ref["sha256"], f"{path.name}: compile output is not byte-identical across runs")
    for command in followups:
        res = cli([command, "--input", str(path), "--schedule", str(sched)], workdir, env)
        samples.rss_mb.append(res.rss_mb)
        if not tally.check(res.code == 0, f"{path.name}: {command} exited {res.code}"):
            continue
        samples.times[command].append(res.seconds)
        total += res.seconds
        if command == "verify":
            tally.check(res.stdout.strip().endswith("PASS"), f"{path.name}: verify did not print PASS")
        elif first:
            ref["stats"] = res.stdout
            try:
                machine = _stats_machine(res.stdout)
            except json.JSONDecodeError:
                machine = {}
            mismatches = checks.cross_check_counters(problem, machine, meta, own)
            tally.check(not mismatches, f"{path.name}: counters: {mismatches}")
        else:
            tally.check(res.stdout == ref["stats"], f"{path.name}: stats output changed between runs")
    samples.problem_s.append(total)
    sched.unlink()


def timed_run(workload, seed, seconds, paths, workdir, env, tally, setup_s, warm_rss):
    samples = Samples()
    reference: list[float] = []
    last_reference = -math.inf
    t_start = time.perf_counter()
    pass_s: list[float] = []
    while True:
        t_pass = time.perf_counter()
        for path, spec in zip(paths, workload.problems):
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                ref = run_child(["-c", REFERENCE], workdir, env)
                if ref.code != 0:
                    raise SystemExit(f"perfbench: reference workload exited {ref.code}")
                reference.append(ref.seconds)
                last_reference = time.perf_counter()
            run_problem(path, spec, workload.followups, workdir, env, samples, tally)
        now = time.perf_counter()
        pass_s.append(now - t_pass)
        if len(pass_s) >= MIN_PASSES and now + pass_s[-1] > t_start + seconds:
            break
    elapsed = time.perf_counter() - t_start
    passes = len(pass_s)

    speed = REFERENCE_S / statistics.median(reference)

    def med(xs):
        # Rescaled to the reference speed.  An empty list means every command
        # of that kind failed, which the tally already counts; 0 keeps the
        # JSON line valid.
        return statistics.median(xs) * speed if xs else 0.0

    q = samples.quality
    metrics = {
        "setup_s": setup_s * speed,
        "compile_s": med(samples.times["compile"]),
        "stats_s": med(samples.times["stats"]),
        # One client in a closed loop completes 1 / (time per problem)
        # problems a second.  The median keeps slow outliers and the
        # benchmark's own checks out of it.
        "problems_per_s": 1.0 / med(samples.problem_s) if samples.problem_s else 0.0,
        "peak_rss_mb": max(samples.rss_mb + [warm_rss]),
        "schedule_mb": statistics.median(samples.sizes) / 1e6 if samples.sizes else 0.0,
        "analog_requests": q["analog_requests"],
        "resource_blocks": q["resource_blocks"],
        "sqr_gates": q["sqr_gates"],
        "total_analog_time": q["total_analog_time"],
    }
    print(f"workload {workload.name}, seed {seed}: {len(paths)} problems x {passes} passes "
          f"in {elapsed:.1f} s, closed loop, 1 client")
    print(f"  reference workload: median {statistics.median(reference):.4f} s of {len(reference)}; "
          f"times below are wall times x {speed:.4f}, the speed at which it takes {REFERENCE_S} s")
    timed = {"compile_s": samples.times["compile"], "stats_s": samples.times["stats"],
             "problems_per_s": samples.problem_s}
    for name, value in metrics.items():
        note = _sample_note(timed[name]) if name in timed else ""
        if name == "analog_requests" and q["reference_5L_minus_12"]:
            note = (f"  (even-L ata problems: {q['requests_on_even_ata']} against the "
                    f"paper's 5L-12 = {q['reference_5L_minus_12']}; information)")
        print(f"  {name}: {value!r} {END_TO_END[name]}{note}")
    if samples.times["verify"]:
        print(f"  verify_s: {med(samples.times['verify'])!r} s{_sample_note(samples.times['verify'])}"
              " (information)")
    return metrics


def _sample_note(values: list[float]) -> str:
    """Sample count and raw median, plus the highest percentile with at least ten samples beyond it."""
    note = f"  (median of {len(values)}, raw {statistics.median(values):.4f} s"
    p = math.floor(100 * (1 - 10 / len(values))) if len(values) > 10 else 0
    if p > 50:
        note += f"; p{p} {statistics.quantiles(values, n=100, method='inclusive')[p - 1]:.4f} s, information"
    return note + ")"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "daqcompile" / "cli.py").is_file():
        print(f"perfbench: no daqcompile sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = child_env()
    tally = Tally()
    workdir = HERE / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        paths, setup_s, warm_rss = setup(workload, args.seed, workdir, env)
        if args.trace:
            import tracing
            probe = workloads.write_probe(workload, args.seed, workdir)
            out_file = HERE / "_out" / f"trace-{workload.name}-seed{args.seed}.json"
            try:
                metrics = tracing.traced_run(SRC, env, paths, workload.followups, probe, workdir,
                                             args.seconds, tally, out_file)
            except tracing.PipelineMismatch as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 1
            units = tracing.metric_units()
            print(f"workload {workload.name}, seed {args.seed}: traced run, spans in {out_file}")
            for name, value in metrics.items():
                print(f"  {name}: {value!r} {units[name]}")
        else:
            units = END_TO_END
            metrics = timed_run(workload, args.seed, args.seconds, paths, workdir, env, tally,
                                setup_s, warm_rss)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"  failed_ratio: {tally.failed / max(tally.attempted, 1)!r} ({tally.failed} of {tally.attempted})")
    for message in tally.messages[:20]:
        print(f"  FAILED {message}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
