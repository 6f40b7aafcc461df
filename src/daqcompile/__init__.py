"""Digital-analog compiler for all-to-all ZZ Ising evolutions.

Compiles exp(i t H) for an arbitrary symmetric ZZ coupling graph into a
schedule of evolutions under a fixed nearest-neighbour chain, interleaved
with single-qubit rotations, plus an exact dense-unitary verifier for small
qubit counts.

The package exports nothing but its version: callers import what they use
from its modules (`circuits`, `compiler`, `fileio`, `unitaries`, ...), so
`import daqcompile` loads no submodule and only `compiler`, `scheduler` and
`unitaries` load NumPy.
"""

__version__ = "0.1.0"
