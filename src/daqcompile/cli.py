"""Command-line front end: compile problems, verify schedules, report stats.

Exit codes: 0 success / verification passed, 1 malformed input (including
command-line usage errors and an --output that is unwritable or not a
regular file) or a standard output closed before the report was written (as
by `| head -n 0`; nothing is printed to stderr then), 2 target unschedulable
on the given resource, 3 verification failed.  Reports go to stdout,
diagnostics to stderr; outputs are byte-identical for identical inputs.

`entry` is the process entry of both `python -m daqcompile.cli` and the
`daqcompile` console script.  It switches the cyclic collector off and
freezes the start-up heap before it runs `main`, so no collection scans that
heap, not even those at interpreter shutdown: a command builds no reference
cycles but argparse's, the same few at any size.  Then it flushes stdout, and
points it at devnull if the reader has gone.  `main(argv)`, the in-process
API, leaves the collector and file descriptor 1 as it found them.

Only `compile` imports `compiler` and only `verify` imports `frames`, each
inside its command.  No module the command line loads imports NumPy:
`unitaries`, the dense oracle that does, serves the tests and the
benchmark's tracer.  Nor does any import `dataclasses` or `inspect`, for
start-up: the value classes stand on `_frozen.Frozen`, since importing
those two and running the dataclass decorators took longer than importing
the whole package does now.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import __version__
from .circuits import Circuit, circuit_stats
from .errors import FileFormatError, UnschedulableError
from .fileio import (
    ProblemSpec,
    dumps_canonical,
    iter_canonical,
    load_problem,
    load_problem_with_sha256,
    load_schedule,
    schedule_document,
    write_replacing,
)


# Printed under every reference_request_count line.
_REFERENCE_NOTE = (
    "note: reference_request_count is 5L-12, the paper's count; this "
    "compiler's swap network with merged iSWAP halves needs 3L-4 for "
    "even L, as many at L=4 and fewer from L=6 on."
)


# A failed `verify` lists this many of its worst couplings.
_WORST_SHOWN = 5


def _reference_request_count(problem: ProblemSpec) -> int | None:
    """The paper's 5L-12 analog requests, defined for even-L all-to-all targets with L >= 4."""
    L = problem.num_qubits
    return 5 * L - 12 if problem.target_type == "ata" and L % 2 == 0 and L >= 4 else None


def _schedule_counts(circuit: Circuit) -> dict:
    """The counts that `compile` and `stats` both report, in their printed order."""
    st = circuit_stats(circuit)
    return {"resource_blocks": st.analog_block_count, "sqr_gates": st.sqr_count,
            "total_analog_time": st.total_analog_time}


def _load_pair(args: argparse.Namespace) -> tuple[ProblemSpec, Circuit, dict]:
    """The problem and its schedule, which must agree on qubits, couplings and time."""
    problem = load_problem(args.input)
    circuit, resource_echo, t_f, metadata = load_schedule(args.schedule)
    pair = f"schedule {args.schedule} and problem {args.input}"
    if circuit.num_qubits != problem.num_qubits:
        raise FileFormatError(f"{pair} disagree on num_qubits")
    if resource_echo != problem.resource:
        raise FileFormatError(f"{pair} disagree on resource couplings")
    if t_f != problem.t_f:
        raise FileFormatError(f"{pair} disagree on time")
    return problem, circuit, metadata


def cmd_compile(args: argparse.Namespace) -> int:
    from .compiler import compile_target

    problem, input_sha256 = load_problem_with_sha256(args.input)
    result = compile_target(problem.num_qubits, problem.target_phases, problem.resource, problem.t_f)
    stats = {"analog_requests": result.analog_requests, **_schedule_counts(result.circuit)}
    doc = schedule_document(
        result.circuit, problem.resource, problem.t_f, stats,
        tool_version=__version__, input_sha256=input_sha256,
    )
    write_replacing(args.output, iter_canonical(doc))
    print(f"compiled {problem.target_type} target on {problem.num_qubits} qubits")
    for key, value in stats.items():
        print(f"{key}: {value!r}")
    reference = _reference_request_count(problem)
    if reference is not None:
        print(f"reference_request_count: {reference}")
        print(_REFERENCE_NOTE)
    print(f"wrote {args.output}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .frames import check_schedule

    problem, circuit, _metadata = _load_pair(args)
    report = check_schedule(circuit, problem.resource, problem.target_phases)
    passed = report.passed(args.tol)
    print(f"distance: {report.bound:.3e}")
    print(f"tolerance: {args.tol:.3e}")
    if not passed:
        for c in report.couplings[:_WORST_SHOWN]:
            if c.off > 0.0:
                print(f"{c.edge}: realised {c.realised!r}, target {c.target!r}, off by {c.off:.3e}")
        if report.single_z or report.other_z or report.rounding:
            print(f"single-qubit Z off by {report.single_z:.3e}, longer Z strings off by "
                  f"{report.other_z:.3e}, rounding to k*pi/4 off by {report.rounding:.3e}")
        if report.frame_off is not None:
            print(f"frame: qubit {report.frame_off} does not return to itself")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 3


def cmd_stats(args: argparse.Namespace) -> int:
    problem, circuit, metadata = _load_pair(args)
    reference = _reference_request_count(problem)
    lines = {
        "num_qubits": problem.num_qubits,
        "target_type": problem.target_type,
        **_schedule_counts(circuit),
        "analog_requests": metadata["stats"]["analog_requests"],
        "reference_request_count": reference,
    }
    for key, value in lines.items():
        if value is not None:
            print(f"{key}: {value}")
    if reference is not None:
        print(_REFERENCE_NOTE)
    print("---")
    print(dumps_canonical(lines), end="")
    return 0


def _tolerance(text: str) -> float:
    """An argparse type: a finite number above 0; anything else is a usage error."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return tol


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as malformed input; argparse's own 2 means unschedulable here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="daqcompile",
        description="Compile all-to-all ZZ Ising evolutions onto a fixed chain resource.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a problem file to a schedule")
    p_compile.add_argument("--input", required=True, help="problem JSON file")
    p_compile.add_argument("--output", required=True, help="schedule JSON file to write")
    p_compile.set_defaults(func=cmd_compile)

    p_verify = sub.add_parser("verify", help="check a schedule against the exact target")
    p_verify.add_argument("--input", required=True, help="problem JSON file")
    p_verify.add_argument("--schedule", required=True, help="schedule JSON file")
    p_verify.add_argument(
        "--tol", type=_tolerance, default=1e-9, help="tolerance on the distance bound",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_stats = sub.add_parser("stats", help="report schedule statistics")
    p_stats.add_argument("--input", required=True, help="problem JSON file")
    p_stats.add_argument("--schedule", required=True, help="schedule JSON file")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return 1   # the reader has gone; `entry` keeps the exit flush quiet
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnschedulableError as exc:
        print(f"unschedulable: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """The process entry: `main()` on a frozen start-up heap with the collector off, then a quiet exit flush."""
    gc.disable()
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # interpreter exit does not raise again (the Python docs' idiom).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
