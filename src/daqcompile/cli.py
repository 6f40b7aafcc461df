"""Command-line front end: compile problems, verify schedules, report stats.

Exit codes: 0 success / verification passed, 1 malformed input (including
command-line usage errors and an --output that is unwritable or not a
regular file) or a standard output closed before the report was written (as
by `| head -1`; nothing is printed to stderr then), 2 target unschedulable
on the given resource, 3 verification failed, 4 qubit count over the
dense-verification cap.  Reports go to stdout, diagnostics to stderr;
outputs are byte-identical for identical inputs.

Only `compile` imports `compiler` and only `verify` imports `unitaries`,
each inside its command.  `unitaries` is the one module that loads NumPy,
so `compile`, `stats` and `--help` run without it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable

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


# `verify`'s default qubit cap: dense matrices of 2^10 x 2^10 keep one check
# to a few seconds.
DEFAULT_MAX_QUBITS = 10


# Printed under every reference_request_count line.
_REFERENCE_NOTE = (
    "note: reference_request_count is 5L-12, the paper's count; this "
    "compiler's swap network with merged iSWAP halves needs 3L-4 for "
    "even L, as many at L=4 and fewer from L=6 on."
)


def _reference_request_count(problem: ProblemSpec) -> int | None:
    """The paper's 5L-12 analog requests, defined for even-L all-to-all targets with L >= 4."""
    L = problem.num_qubits
    return 5 * L - 12 if problem.target_type == "ata" and L % 2 == 0 and L >= 4 else None


def _load_pair(args: argparse.Namespace) -> tuple[ProblemSpec, Circuit, dict]:
    """The problem and its schedule, which must agree on qubits, couplings and time."""
    problem = load_problem(args.input)
    circuit, resource_echo, t_f, metadata = load_schedule(args.schedule)
    if circuit.num_qubits != problem.num_qubits:
        raise FileFormatError("schedule and problem disagree on num_qubits")
    if resource_echo != problem.resource:
        raise FileFormatError("schedule and problem disagree on resource couplings")
    if t_f != problem.t_f:
        raise FileFormatError("schedule and problem disagree on time")
    return problem, circuit, metadata


def cmd_compile(args: argparse.Namespace) -> int:
    from .compiler import compile_ata, compile_chain

    problem, input_sha256 = load_problem_with_sha256(args.input)
    if problem.target_type == "ata":
        result = compile_ata(problem.target_graph, problem.resource, problem.t_f)
    else:
        result = compile_chain(problem.target_angles, problem.resource, problem.t_f)
    st = circuit_stats(result.circuit)
    stats = {
        "analog_requests": result.analog_requests,
        "resource_blocks": st.analog_block_count,
        "sqr_gates": st.sqr_count,
        "total_analog_time": st.total_analog_time,
    }
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
    problem, circuit, _metadata = _load_pair(args)
    if problem.num_qubits > args.max_qubits:
        print(f"{problem.num_qubits} qubits exceeds the dense-verification cap of {args.max_qubits}",
              file=sys.stderr)
        return 4
    from .unitaries import circuit_unitary, exact_target, phase_distance, zz_evolution

    if problem.target_type == "ata":
        target = exact_target(problem.target_graph, problem.t_f)
    else:
        angles = {(j, j + 1): phi for j, phi in enumerate(problem.target_angles)}
        target = zz_evolution(angles, problem.num_qubits)
    actual = circuit_unitary(circuit, problem.resource)
    report = phase_distance(target, actual)
    passed = report.distance < args.tol
    print(f"distance: {report.distance:.3e}")
    print(f"tolerance: {args.tol:.3e}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 3


def cmd_stats(args: argparse.Namespace) -> int:
    problem, circuit, metadata = _load_pair(args)
    st = circuit_stats(circuit)
    reference = _reference_request_count(problem)
    lines = {
        "num_qubits": problem.num_qubits,
        "target_type": problem.target_type,
        "resource_blocks": st.analog_block_count,
        "sqr_gates": st.sqr_count,
        "total_analog_time": st.total_analog_time,
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


def _checked(
    convert: Callable[[str], float], valid: Callable[[float], bool], wanted: str
) -> Callable[[str], float]:
    """An argparse type: `convert`, then reject what `valid` refuses as a usage error."""

    def parse(text: str) -> float:
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


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
        "--tol", type=_checked(float, lambda tol: math.isfinite(tol) and tol > 0, "a finite number > 0"),
        default=1e-9, help="distance tolerance",
    )
    p_verify.add_argument(
        "--max-qubits", type=_checked(int, lambda cap: cap >= 2, "an integer >= 2"),
        default=DEFAULT_MAX_QUBITS,
        help=f"dense-verification qubit cap (default {DEFAULT_MAX_QUBITS})",
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
        # The reader has gone.  Point stdout at devnull so that the flush at
        # interpreter exit does not raise again (the Python docs' idiom).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnschedulableError as exc:
        print(f"unschedulable: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
