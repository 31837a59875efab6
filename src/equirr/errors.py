"""Exception hierarchy shared by all equirr modules.

The CLI maps these to exit codes: InputError -> 2, CapExceeded and
Inconsistency -> 3.  Verdict failures (a formula disagreeing with the
oracle) are reported data, not exceptions, and map to exit code 1.
"""


class EquirrError(Exception):
    pass


class InputError(EquirrError):
    """Bad user input: malformed scenario, non-equivariant divisor, etc."""


class CapExceeded(EquirrError):
    """A configured size or iteration cap was hit; every draw is fixed, so
    the same input hits it on every run and needs a larger cap."""


class Inconsistency(EquirrError):
    """An internal integrality or structure assertion failed.  These
    assertions encode theorem statements, so a failure means either a bug
    or a falsified theorem; it is never silently swallowed."""
