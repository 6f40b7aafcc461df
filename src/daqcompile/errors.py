"""Exception types shared across the package, and the dense-verification cap."""

# The dense verifier's default qubit cap (see unitaries), kept here so the
# command line can show it without importing NumPy.
DEFAULT_MAX_QUBITS = 10


class UnschedulableError(Exception):
    """A target needs coupling on a chain slot whose resource coupling is zero."""

    def __init__(self, slot: int, angle: float):
        self.slot = slot
        self.angle = angle
        super().__init__(
            f"slot {slot} requires ZZ angle {angle!r} but its resource coupling is zero"
        )


class QubitLimitError(Exception):
    """Dense verification was requested beyond the configured qubit cap."""


class FileFormatError(Exception):
    """A problem or schedule file is malformed or violates its schema."""
