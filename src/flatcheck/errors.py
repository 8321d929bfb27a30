"""Exception hierarchy shared by all flatcheck modules, and the resource
guards whose trips raise GuardExceeded."""

import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional


class FlatcheckError(Exception):
    """Base class for all errors raised by this package."""


class VariableClash(FlatcheckError):
    """Mismatched rings, duplicate variable names, or unmapped variables."""


class InvalidInput(FlatcheckError):
    """An argument violates an operation's precondition."""


class GuardExceeded(FlatcheckError):
    """A resource guard (degree, pair count, wall time) tripped.

    Carries the name of the guard that tripped so reports can surface it.
    """

    def __init__(self, guard: str, message: str = ""):
        self.guard = guard
        super().__init__(message or f"guard exceeded: {guard}")


@dataclass
class Guards:
    """Resource caps.  Tripping a guard raises, never returns a wrong answer.

    A `with Guards(...):` block makes these caps the active ones for
    everything it runs, and starts the wall-time deadline.  Long loops
    read the active caps through `Guards.current()`; outside any block
    that is an unlimited instance.  Leaving a block, also by an exception,
    restores the caps that were active before it.
    """

    max_pairs: Optional[int] = None
    max_degree: Optional[int] = None
    timeout: Optional[float] = None  # seconds of wall time

    def __post_init__(self):
        self._deadline = None
        self._token = None

    def __enter__(self):
        self._deadline = None if self.timeout is None else time.monotonic() + self.timeout
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc_info):
        _ACTIVE.reset(self._token)

    @classmethod
    def current(cls):
        """The caps of the innermost active block, or unlimited ones."""
        return _ACTIVE.get()

    def check_time(self):
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise GuardExceeded("time")

    def check_degree(self, degrees):
        """Trip if any of the total degrees exceeds the degree cap."""
        if self.max_degree is not None and max(degrees, default=0) > self.max_degree:
            raise GuardExceeded("degree")

    def check_pairs(self, count):
        if self.max_pairs is not None and count > self.max_pairs:
            raise GuardExceeded("pairs")


_ACTIVE = ContextVar("flatcheck_guards", default=Guards())


class NotZeroDimensional(FlatcheckError):
    """Zero-dimensional decomposition called on a positive-dimensional ideal."""


class HypothesisViolation(FlatcheckError):
    """A machine-checkable hypothesis of the flatness criterion failed."""

    def __init__(self, name: str, message: str = ""):
        self.hypothesis = name
        super().__init__(message or f"hypothesis violated: {name}")


class ParseError(FlatcheckError):
    """Problem-file syntax error, with source position."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} at line {line}, column {column}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)
