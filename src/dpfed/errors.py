"""Exception types shared across the package, and what each fault ends in.

A class exists only where dpfed code reacts to it differently: with a
CLI exit code, an ABORT code, or a re-raise as another class. Every other
refusal is ``InvalidValue``, and tests match on its message. Each class
names the ``exit_code`` of ``dpfed`` when it reaches ``cli.main``, the
``abort_code`` a session sends when it ends one, and the ``label`` that
``cli.main`` prints before its text. An ``OSError`` in ``cli.main`` exits
as the base class does; a session that ended in an ABORT exits by
``session_exit_code``.
"""

# abort reason codes carried in ABORT frames
ABORT_BUDGET = 1
ABORT_TIMEOUT = 2
ABORT_DECODE = 3
ABORT_PROTOCOL = 4


class DpFedError(Exception):
    """Base class for all package errors."""

    exit_code, abort_code, label = 2, ABORT_PROTOCOL, ""


class InvalidValue(DpFedError):
    """A bad value, shape, label, config line or file; ``wire`` re-raises it from INIT or GRAD as DecodeError."""


class BudgetExceeded(DpFedError):
    """Composing a step would push spend past the privacy budget."""

    exit_code, abort_code, label = 5, ABORT_BUDGET, "budget exhausted: "


class ProtocolError(DpFedError):
    """A peer sent a message that violates the session protocol."""

    exit_code, abort_code, label = 4, ABORT_PROTOCOL, "protocol failure: "


class DecodeError(DpFedError):
    """A byte frame cannot be decoded as a protocol message."""

    exit_code, abort_code, label = 4, ABORT_DECODE, "protocol failure: "


class TransportError(DpFedError):
    """A socket could not be set up or a connection failed."""

    exit_code, abort_code, label = 3, ABORT_DECODE, "transport failure: "


class TimedOut(DpFedError):
    """A peer did not respond within the session timeout."""

    exit_code, abort_code, label = 3, ABORT_TIMEOUT, "transport failure: "


def session_exit_code(aborted: int | None) -> int:
    """0 for a clean session; for one that ended with ABORT code ``aborted``,
    sent or relayed, 5 if it is ABORT_BUDGET and 4 otherwise."""
    if aborted is None:
        return 0
    return BudgetExceeded.exit_code if aborted == ABORT_BUDGET else ProtocolError.exit_code
