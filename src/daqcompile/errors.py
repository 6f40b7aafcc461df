"""Exception types the library raises and the command line maps to exit codes."""


class UnschedulableError(Exception):
    """A chain slot's angle cannot be reached on the resource.

    Its resource coupling is zero, or the evolution it needs overflows the
    float range.
    """

    def __init__(self, slot: int, angle: float, reason: str = "its resource coupling is zero"):
        self.slot = slot
        self.angle = angle
        super().__init__(f"slot {slot} requires ZZ angle {angle!r} but {reason}")


class FileFormatError(Exception):
    """A problem or schedule file is malformed or violates its schema."""
