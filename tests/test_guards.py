"""The resource guards: the time guard's alarm, its budgets, and the state
a block leaves behind on each way out."""

import math
import signal
import sys
import threading
import time
from contextlib import nullcontext

import pytest

from flatcheck.errors import GuardExceeded, Guards, InvalidInput
from flatcheck.groebner import groebner_basis
from flatcheck.rings import PolyRing


def _spin(seconds):
    """A pure-Python loop that calls no guard, for at most `seconds`."""
    end = time.monotonic() + seconds
    n = 0
    while time.monotonic() < end:
        n += 1
    return n


def _assert_no_alarm_left(handler):
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler
    assert Guards.current() == Guards()


@pytest.mark.parametrize("budget", [0, 0.0, -1.5])
def test_a_spent_budget_trips_on_entry(budget):
    handler = signal.getsignal(signal.SIGALRM)
    ran = False
    with pytest.raises(GuardExceeded) as exc, Guards(timeout=budget):
        ran = True
    assert exc.value.guard == "time" and not ran
    _assert_no_alarm_left(handler)


def test_a_loop_with_no_guard_call_ends_near_its_budget():
    budget = 0.2
    start = time.monotonic()
    with pytest.raises(GuardExceeded) as exc, Guards(timeout=budget):
        _spin(30)
    elapsed = time.monotonic() - start
    assert exc.value.guard == "time"
    assert budget - 0.01 <= elapsed <= budget + 1


def _cap_trips():
    ring = PolyRing(("x", "y"))
    x, y = ring.gens()
    groebner_basis([x**2 + y**2 - 1, x * y - 1], ring.default_order)


@pytest.mark.parametrize("way_out", ["normal", "alarm", "cap", "error"])
def test_a_timed_block_leaves_no_alarm_behind(way_out):
    handler = signal.getsignal(signal.SIGALRM)
    budget = 0.05 if way_out == "alarm" else 30
    with nullcontext() if way_out == "normal" else pytest.raises((GuardExceeded, ValueError)):
        with Guards(timeout=budget, max_degree=1):
            if way_out == "alarm":
                _spin(30)
            elif way_out == "cap":
                _cap_trips()
            elif way_out == "error":
                raise ValueError(way_out)
    _assert_no_alarm_left(handler)


def _alarm_at_line(k, guards):
    """A trace function that sends SIGALRM at the k-th line run while the
    handler of `guards` is installed."""
    seen = 0

    def trace(frame, event, arg):
        nonlocal seen
        if event == "line" and signal.getsignal(signal.SIGALRM) == guards._on_alarm:
            seen += 1
            if seen == k:
                signal.raise_signal(signal.SIGALRM)
        return trace

    return trace


def test_an_alarm_landing_in_exit_still_restores_the_enclosing_block():
    handler = signal.getsignal(signal.SIGALRM)
    landed = 0
    for k in range(1, 50):
        with Guards(timeout=30) as outer:
            inner = Guards(timeout=10)
            tripped = False
            try:
                with inner:
                    sys.settrace(_alarm_at_line(k, inner))
            except GuardExceeded as exc:
                tripped = exc.guard == "time"
            finally:
                sys.settrace(None)
            assert Guards.current() is outer
            assert signal.getsignal(signal.SIGALRM) == outer._on_alarm
            assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 30
        _assert_no_alarm_left(handler)
        if not tripped:
            break
        landed += 1
    # The alarm landed on each line of the exit until the handler changed.
    assert 3 <= landed < k


def test_nested_blocks_keep_the_outer_deadline():
    handler = signal.getsignal(signal.SIGALRM)
    for inner in (Guards(timeout=10), Guards(max_pairs=10**6)):
        start = time.monotonic()
        with pytest.raises(GuardExceeded), Guards(timeout=0.3):
            with inner:
                pass
            _spin(30)
        assert 0.29 <= time.monotonic() - start <= 1.3
        _assert_no_alarm_left(handler)
    # An inner block that outlives the outer deadline trips on its way out.
    start = time.monotonic()
    with pytest.raises(GuardExceeded), Guards(timeout=0.1):
        with Guards(timeout=10):
            _spin(0.2)
        _spin(30)
    assert time.monotonic() - start <= 1.2
    _assert_no_alarm_left(handler)


def test_a_nan_budget_is_refused():
    with pytest.raises(InvalidInput):
        Guards(timeout=math.nan)


@pytest.mark.parametrize("budget", [math.inf, 1e12])
def test_a_budget_past_the_timer_range_sets_no_alarm(budget):
    handler = signal.getsignal(signal.SIGALRM)
    with Guards(timeout=budget) as guards:
        assert Guards.current() is guards
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) == handler
    _assert_no_alarm_left(handler)


def test_a_timed_block_needs_the_main_thread():
    seen = {}

    def work():
        try:
            with Guards(timeout=1):
                seen["timed"] = "entered"
        except InvalidInput as exc:
            seen["timed"] = str(exc)
        try:
            with Guards(max_pairs=1):
                _cap_trips()
        except GuardExceeded as exc:
            seen["pairs"] = exc.guard

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert "main thread" in seen["timed"]
    assert seen["pairs"] == "pairs"


def test_a_timed_block_needs_setitimer(monkeypatch):
    monkeypatch.delattr(signal, "setitimer")
    with pytest.raises(InvalidInput, match="setitimer"), Guards(timeout=1):
        pass
    assert Guards.current() == Guards()
