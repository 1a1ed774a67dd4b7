"""Shared exception types, which the CLI maps onto exit codes, and the
argument type check that raises ``PreconditionError``."""


class UnsupportedFamilyError(ValueError):
    """Requested algebra family is outside the supported list."""


class PreconditionError(ValueError):
    """An operation was called with inputs violating its contract."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; signals a bug, not bad input."""


def check_type(x, cls):
    """``x`` itself when it is a ``cls``; otherwise a PreconditionError
    that names the type it has."""
    if not isinstance(x, cls):
        raise PreconditionError("expected a %s, got %s"
                                % (cls.__name__, type(x).__name__))
    return x
