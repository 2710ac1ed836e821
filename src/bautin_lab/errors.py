"""Exception types shared across the package."""


class UsageError(ValueError):
    """A caller violated a documented precondition (bad degree, bad mode, ...)."""


class FieldParseError(UsageError):
    """Malformed vector-field text.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NoResidueError(UsageError):
    """A denominator divisible by the prime of ``ResidueDomain``: no residue."""


class StageDomainError(UsageError):
    """A parameter-resolution stage left the real domain (negative radicand,
    zero denominator).  ``stage`` names the offending substitution."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage


class SolverInternalError(RuntimeError):
    """An 'impossible' linear system turned up (inconsistent or singular).
    This always signals a bug in the solver, never bad user input."""
