"""Exception types shared across the package.

A class exists only where dpfed code reacts to it differently: with a
CLI exit code, an ABORT code, or a re-raise as another class. Every other
refusal is ``InvalidValue``, and tests match on its message.
"""


class DpFedError(Exception):
    """Base class for all package errors: CLI exit 2; a worker answers it with ABORT_PROTOCOL."""


class InvalidValue(DpFedError):
    """A bad value, shape, label, config line or file; ``wire`` re-raises it from INIT or GRAD as DecodeError."""


class BudgetExceeded(DpFedError):
    """Composing a step would push spend past the privacy budget: exit 5, ABORT_BUDGET."""


class ProtocolError(DpFedError):
    """A peer sent a message that violates the session protocol: exit 4, ABORT_PROTOCOL."""


class DecodeError(DpFedError):
    """A byte frame cannot be decoded as a protocol message: exit 4, ABORT_DECODE."""


class TransportError(DpFedError):
    """A socket could not be set up or a connection failed: exit 3, ABORT_DECODE."""


class TimedOut(DpFedError):
    """A peer did not respond within the session timeout: exit 3, ABORT_TIMEOUT."""
