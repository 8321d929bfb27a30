"""Exception hierarchy shared by all flatcheck modules, and the resource
guards whose trips raise GuardExceeded."""

import math
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
    everything it runs; outside any block `Guards.current()` is an
    unlimited instance.  A `timeout` arms a one-shot SIGALRM alarm
    (`signal.setitimer`) whose handler raises GuardExceeded("time") at the
    next bytecode, wherever the block is.  A budget <= 0 trips on entry;
    inf, or one past the timer's range, sets no alarm.  A timed block needs
    setitimer and the main thread; an untimed one leaves an enclosing alarm
    running.  Leaving a block, also by an exception, restores the caps, the
    handler and the alarm active before it, with what is left of its budget.
    """

    max_pairs: Optional[int] = None
    max_degree: Optional[int] = None
    timeout: Optional[float] = None  # seconds of wall time

    def __post_init__(self):
        if self.timeout is not None and math.isnan(self.timeout):
            raise InvalidInput("timeout must be a number of seconds, not NaN")
        self._token = self._before = None
        self._fired = False

    def __enter__(self):
        if self.timeout is None:
            self._token = _ACTIVE.set(self)
            return self
        import signal
        import threading

        if not hasattr(signal, "setitimer"):
            raise InvalidInput("a timeout needs signal.setitimer, which this platform lacks")
        if threading.current_thread() is not threading.main_thread():
            raise InvalidInput("a timeout needs SIGALRM, which only the main thread receives")
        if self.timeout <= 0:
            raise GuardExceeded("time")
        self._token = _ACTIVE.set(self)
        self._fired = False
        handler = signal.getsignal(signal.SIGALRM)
        self._before = (handler, signal.getitimer(signal.ITIMER_REAL), time.monotonic())
        signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, self.timeout)
        except OverflowError:  # inf, or past the timer's range: no limit
            signal.signal(signal.SIGALRM, handler)
            self._before = None
        return self

    def __exit__(self, *exc_info):
        if not self._fired:  # else the alarm's handler has restored all
            self._restore()

    def _on_alarm(self, signum, frame):
        self._fired = True
        self._restore()
        raise GuardExceeded("time")

    def _restore(self):
        if self._before is not None:
            import signal

            handler, (delay, interval), entered = self._before
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
            if delay:  # what is left of the enclosing alarm, at least 1 us
                left = delay - (time.monotonic() - entered)
                signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6), interval)
        _ACTIVE.reset(self._token)

    @classmethod
    def current(cls):
        """The caps of the innermost active block, or unlimited ones."""
        return _ACTIVE.get()

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
