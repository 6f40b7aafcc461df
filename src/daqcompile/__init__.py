"""Digital-analog compiler for all-to-all ZZ Ising evolutions.

Compiles exp(i t H) for an arbitrary symmetric ZZ coupling graph into a
schedule of evolutions under a fixed nearest-neighbour chain, interleaved
with single-qubit rotations, plus an exact verifier that walks a Pauli
frame (`frames`) at any qubit count.

The package exports nothing but its version: callers import what they use
from its modules (`circuits`, `compiler`, `fileio`, `frames`, ...), so
`import daqcompile` loads no submodule.  Only `unitaries`, the dense oracle
the tests check the verifier against, loads NumPy.
"""

__version__ = "0.1.0"
