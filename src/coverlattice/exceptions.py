"""Exception types shared across the package."""

__all__ = ["GraphError", "CoverError", "LatticeError", "InconsistencyError"]


class GraphError(ValueError):
    """Rejected graph input: malformed text, loops, duplicates, isolated vertices."""


class CoverError(ValueError):
    """Cover computation refused: size cap hit or a precondition does not hold."""


class LatticeError(ValueError):
    """A set family failed a lattice requirement (boundary, closure, gradedness).

    For closure failures ``certificate`` holds the witnessing pair.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class InconsistencyError(RuntimeError):
    """Two independently computed quantities disagree.

    This is the package alarm bell: on valid input it never fires unless some
    component is wrong, so it carries the whole offending instance in
    ``details`` for reproduction, and ``details["stage"]`` names the check
    that fired.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = dict(details or {})
