"""Traced in-process run: one span per layer call, self times and peaks.

The benchmark calls each module's public functions in the order the CLI
does and wraps every call in a span (name, start, end, parent, problem).
Each command is a root span.  A second, memory pass repeats the commands
under tracemalloc, reset per span, for the peak allocation of every stage;
its slowed-down times are not reported.  The same commands also run once
through an untraced in-process `cli.main([...])`, which gives the tracing
overhead.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# Stages whose self time and peak are reported; the roots are the commands.
STAGES = (
    "cli.compile", "cli.stats", "cli.verify",
    "fileio.load_problem", "circuits.ata_circuit_general", "circuits.lower_swap_layers",
    "compiler.schedule_requests", "circuits.circuit_stats", "fileio.schedule_document",
    "fileio.dumps_canonical", "fileio.load_schedule",
    "unitaries.exact_target", "unitaries.circuit_unitary", "unitaries.phase_distance",
    "graphs.walecki_cover", "swaps.sequences",
)
TIMED = (
    "fileio.load_problem", "fileio.schedule_document", "fileio.dumps_canonical",
    "fileio.load_schedule", "circuits.ata_circuit_general", "circuits.lower_swap_layers",
    "graphs.walecki_cover", "compiler.schedule_requests",
    "unitaries.exact_target", "unitaries.circuit_unitary", "unitaries.phase_distance",
)
COUNTERS = {
    "fileio.bytes": "bytes",
    "circuits.iswap_layers": "count",
    "circuits.analog_requests": "count",
    "graphs.disabled_slots": "count",
    "swaps.layers": "count",
    "scheduler.blocks": "count",
    "scheduler.blocks_kept_ratio": "ratio",
    "scheduler.us_per_request": "us",
    "unitaries.gates_applied": "count",
}
VERIFY_TOL = 1e-9


class PipelineMismatch(RuntimeError):
    """The staged calls no longer build what compile_ata builds."""


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.s": "s" for name in TIMED}
    units.update(COUNTERS)
    units.update({"cli.startup_s": "s", "cli.main.s": "s", "trace.overhead_ratio": "ratio"})
    for stage in STAGES:
        units[f"{stage}.self_s"] = "s"
        units[f"{stage}.peak_mb"] = "MB"
    return units


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[dict] = []
        self.problem = ""
        self._stack: list[dict] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent["id"] if parent else None,
               "problem": self.problem, "pass": "memory" if self.memory else "time"}
        self.spans.append(rec)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            rec["_base"] = rec["_peak"] = current
        self._stack.append(rec)
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            if self.memory:
                peak = max(rec.pop("_peak"), tracemalloc.get_traced_memory()[1])
                rec["peak_mb"] = (peak - rec.pop("_base")) / 1e6
                if parent:
                    parent["_peak"] = max(parent["_peak"], peak)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


class Pipeline:
    """The CLI's commands, staged through the package's public functions."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        import daqcompile
        from daqcompile import circuits, cli, compiler, fileio, graphs, swaps, unitaries
        self.dq, self.circuits, self.cli, self.compiler = daqcompile, circuits, cli, compiler
        self.fileio, self.graphs, self.swaps, self.unitaries = fileio, graphs, swaps, unitaries

    def compile(self, tr: Tracer, problem_path: Path, out_path: Path, check: bool) -> dict:
        c, fio = self.circuits, self.fileio
        with tr.span("cli.compile"):
            with tr.span("fileio.load_problem"):
                problem = fio.load_problem(str(problem_path))
            L = problem.num_qubits
            if problem.target_type == "ata":
                with tr.span("circuits.ata_circuit_general"):
                    high = c.ata_circuit_general(problem.target_graph, problem.t_f)
                with tr.span("circuits.lower_swap_layers"):
                    lowered = c.lower_swap_layers(high)
            else:
                high = lowered = c.Circuit(L, (c.AnalogRequest(problem.target_angles),))
            with tr.span("compiler.schedule_requests") as sched_span:
                executable = self.compiler.schedule_requests(lowered, problem.resource, problem.t_f)
            with tr.span("circuits.circuit_stats"):
                st = c.circuit_stats(executable)
            requests = sum(1 for i in lowered.instructions if isinstance(i, c.AnalogRequest))
            stats = {"analog_requests": requests, "resource_blocks": st.analog_block_count,
                     "sqr_gates": st.sqr_count, "total_analog_time": st.total_analog_time}
            with tr.span("fileio.schedule_document"):
                doc = fio.schedule_document(executable, problem.resource, problem.t_f, stats,
                                            tool_version=self.dq.__version__,
                                            input_sha256=fio.sha256_of_file(str(problem_path)))
            with tr.span("fileio.dumps_canonical"):
                text = fio.dumps_canonical(doc)
            out_path.write_text(text, encoding="utf-8")
        if check:
            self.check_staged(problem, executable, requests)
        counters = {
            "fileio.bytes": len(text),
            "circuits.analog_requests": requests,
            "scheduler.blocks": st.analog_block_count,
            "scheduler.blocks_kept_ratio": st.analog_block_count / (requests * (L - 1)),
            "scheduler.us_per_request": 1e6 * (sched_span["end"] - sched_span["start"]) / requests,
        }
        if problem.target_type == "ata":
            counters["circuits.iswap_layers"] = sum(
                1 for i in high.instructions if isinstance(i, c.DigitalLayer) and i.has_iswaps)
            counters.update(self.side(tr, L))
        return counters

    def check_staged(self, problem, executable, requests: int) -> None:
        """The staged calls must build exactly the circuit compile_ata builds."""
        if problem.target_type == "ata":
            reference = self.compiler.compile_ata(problem.target_graph, problem.resource, problem.t_f)
        else:
            reference = self.compiler.compile_chain(problem.target_angles, problem.resource, problem.t_f)
        if reference.circuit != executable or reference.analog_requests != requests:
            raise PipelineMismatch(
                "staged ata_circuit_general -> lower_swap_layers -> schedule_requests "
                "differs from compile_ata; update the traced pipeline")

    def stats(self, tr: Tracer, problem_path: Path, sched_path: Path) -> dict:
        fio = self.fileio
        with tr.span("cli.stats"):
            with tr.span("fileio.load_problem"):
                problem = fio.load_problem(str(problem_path))
            with tr.span("fileio.load_schedule"):
                circuit, _, _, metadata = fio.load_schedule(str(sched_path))
            with tr.span("circuits.circuit_stats"):
                st = self.circuits.circuit_stats(circuit)
            with tr.span("fileio.dumps_canonical"):
                fio.dumps_canonical({"num_qubits": problem.num_qubits, "resource_blocks": st.analog_block_count,
                                     "sqr_gates": st.sqr_count, "total_analog_time": st.total_analog_time,
                                     "analog_requests": metadata["stats"].get("analog_requests")})
        return {}

    def verify(self, tr: Tracer, problem_path: Path, sched_path: Path) -> dict:
        fio, u = self.fileio, self.unitaries
        with tr.span("cli.verify"):
            with tr.span("fileio.load_problem"):
                problem = fio.load_problem(str(problem_path))
            with tr.span("fileio.load_schedule"):
                circuit, resource, _, _ = fio.load_schedule(str(sched_path))
            L = problem.num_qubits
            with tr.span("unitaries.exact_target"):
                if problem.target_type == "ata":
                    target = u.exact_target(problem.target_graph, problem.t_f)
                else:
                    target = u.zz_evolution({(j, j + 1): a for j, a in enumerate(problem.target_angles)}, L)
            with tr.span("unitaries.circuit_unitary"):
                actual = u.circuit_unitary(circuit, resource)
            with tr.span("unitaries.phase_distance"):
                report = u.phase_distance(target, actual)
        gates = sum(len(i.gates) if isinstance(i, self.circuits.DigitalLayer) else 1 for i in circuit.instructions)
        return {"unitaries.gates_applied": gates, "distance": report.distance}

    def side(self, tr: Tracer, L: int) -> dict:
        """Cover and swap synthesis, which run inside ata_circuit_general.

        Its own root span, outside `cli.compile`, so that the compile root
        still compares with an untraced `cli.main compile`.
        """
        with tr.span("side"):
            with tr.span("graphs.walecki_cover"):
                cover = self.graphs.walecki_cover(L)
            with tr.span("swaps.sequences"):
                if L % 2 == 0:
                    seqs = [self.swaps.walecki_sequence(k + 1, L) for k in range(len(cover.paths))]
                else:
                    seqs = [self.swaps.sort_network_sequence(p) for p in cover.paths]
        return {"graphs.disabled_slots": sum(len(d) for d in cover.disabled_slots),
                "swaps.layers": sum(len(s) for s in seqs)}

    def main_seconds(self, argv: list[str]) -> tuple[float, int]:
        """Untraced in-process run of one CLI command."""
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            return time.perf_counter() - t0, code


def _startup_seconds(env: dict, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import daqcompile.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_run(src: Path, env: dict, problems: list[Path], followups: tuple[str, ...],
               probe: Path | None, workdir: Path, seconds: float, tally, out_file: Path) -> dict:
    """Trace the workload's problems in order while the budget lasts (at least one).

    Each per-layer value is the median over traced problems of that layer's
    total per problem.  Layers the workload's own problems never reach (the
    verifier on the large workloads) are measured on the probe instead.
    """
    pipe = Pipeline(src)
    timing, memory = Tracer(memory=False), Tracer(memory=True)
    counters: dict[str, dict[str, float]] = {name: {} for name in COUNTERS}
    mains: dict[str, float] = {}
    overhead = {"traced": 0.0, "untraced": 0.0}
    startup = _startup_seconds(env)

    def run_commands(problem: Path, names: tuple[str, ...]) -> None:
        key = problem.stem
        sched = workdir / f"{key}.traced.json"
        for tr in (timing, memory):
            tr.problem = key
            if tr.memory:
                tracemalloc.start()
            try:
                for name in names:
                    first = len(tr.spans)
                    if name == "compile":
                        found = pipe.compile(tr, problem, sched, check=not tr.memory)
                    elif name == "stats":
                        found = pipe.stats(tr, problem, sched)
                    else:
                        found = pipe.verify(tr, problem, sched)
                        distance = found.pop("distance")
                        if not tr.memory:
                            tally.check(distance < VERIFY_TOL,
                                        f"traced verify distance {distance:.3e} on {problem.name}")
                    if tr.memory:
                        continue
                    for counter, value in found.items():
                        counters[counter][key] = value
                    root = tr.spans[first]
                    overhead["traced"] += root["end"] - root["start"]
                    flag = "--output" if name == "compile" else "--schedule"
                    dt, code = pipe.main_seconds([name, "--input", str(problem), flag, str(sched)])
                    tally.check(code == 0, f"in-process cli.main {name} exited {code} on {problem.name}")
                    overhead["untraced"] += dt
                    mains[key] = mains.get(key, 0.0) + dt
            finally:
                if tr.memory:
                    tracemalloc.stop()

    t_start = time.perf_counter()
    keys = []
    for problem in problems:
        t_problem = time.perf_counter()
        run_commands(problem, ("compile",) + followups)
        keys.append(problem.stem)
        if time.perf_counter() - t_start + (time.perf_counter() - t_problem) > seconds:
            break
    if probe is not None:
        _, code = pipe.main_seconds(["compile", "--input", str(probe),
                                     "--output", str(workdir / f"{probe.stem}.traced.json")])
        tally.check(code == 0, f"probe compile exited {code}")
        run_commands(probe, ("verify",))

    def per_problem(spans: list[dict], value) -> dict[str, dict[str, float]]:
        """name -> problem -> summed value of that name's spans."""
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            slot = out.setdefault(s["name"], {})
            slot[s["problem"]] = slot.get(s["problem"], 0.0) + value(s)
        return out

    def median(by_problem: dict[str, float], name: str) -> float:
        values = [by_problem[k] for k in keys if k in by_problem] or list(by_problem.values())
        if not values:
            raise RuntimeError(f"traced run measured nothing for {name}")
        return float(statistics.median(values))

    own = self_times(timing.spans)
    durations = per_problem(timing.spans, lambda s: s["end"] - s["start"])
    selfs = per_problem(timing.spans, lambda s: own[s["id"]])
    peaks: dict[str, dict[str, float]] = {}
    for s in memory.spans:
        slot = peaks.setdefault(s["name"], {})
        slot[s["problem"]] = max(slot.get(s["problem"], 0.0), s["peak_mb"])

    metrics = {f"{n}.s": median(durations.get(n, {}), n) for n in TIMED}
    metrics.update({n: median(v, n) for n, v in counters.items()})
    metrics["cli.startup_s"] = startup
    metrics["cli.main.s"] = median(mains, "cli.main")
    metrics["trace.overhead_ratio"] = overhead["traced"] / overhead["untraced"]
    for stage in STAGES:
        metrics[f"{stage}.self_s"] = median(selfs.get(stage, {}), stage)
        metrics[f"{stage}.peak_mb"] = median(peaks.get(stage, {}), stage)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(json.dumps({"traced_problems": keys, "probe": probe.stem if probe else None,
                                    "spans": timing.spans + memory.spans, "counters": counters},
                                   indent=1), encoding="utf-8")
    return metrics
