"""Digital-analog compiler for all-to-all ZZ Ising evolutions.

Compiles exp(i t H) for an arbitrary symmetric ZZ coupling graph into a
schedule of evolutions under a fixed nearest-neighbour chain, interleaved
with single-qubit rotations, plus an exact dense-unitary verifier for small
qubit counts.
"""

from .circuits import (
    AnalogRequest,
    Circuit,
    DigitalLayer,
    Gate,
    GateType,
    ResourceBlock,
    ScheduleStats,
    ata_circuit_general,
    circuit_stats,
    lower_iswap_layer,
    lower_swap_layers,
)
from .compiler import CompileResult, compile_ata, compile_chain, schedule_requests
from .errors import FileFormatError, QubitLimitError, UnschedulableError
from .graphs import CouplingGraph, NNChain, PathCover, walecki_cover, zigzag_path
from .scheduler import schedule
from .swaps import SwapSequence, sort_network_sequence, walecki_sequence
from .unitaries import (
    DistanceReport,
    circuit_unitary,
    exact_target,
    phase_distance,
    zz_evolution,
)

__version__ = "0.1.0"
