"""Digital-analog compiler for all-to-all ZZ Ising evolutions.

Compiles exp(i t H) for an arbitrary symmetric ZZ coupling graph into a
schedule of evolutions under a fixed nearest-neighbour chain, interleaved
with single-qubit rotations, plus an exact dense-unitary verifier for small
qubit counts.

The names from `compiler`, `scheduler` and `unitaries` need NumPy, so they
are imported on first use (PEP 562); `import daqcompile` and the `stats`
command never load NumPy.
"""

import importlib

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
from .errors import FileFormatError, QubitLimitError, UnschedulableError
from .graphs import CouplingGraph, NNChain, PathCover, walecki_cover, zigzag_path
from .swaps import SwapSequence, sort_network_sequence, walecki_sequence

__version__ = "0.1.0"

_LAZY = {
    "CompileResult": "compiler",
    "compile_ata": "compiler",
    "compile_chain": "compiler",
    "schedule_requests": "compiler",
    "schedule": "scheduler",
    "DistanceReport": "unitaries",
    "circuit_unitary": "unitaries",
    "exact_target": "unitaries",
    "phase_distance": "unitaries",
    "zz_evolution": "unitaries",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
