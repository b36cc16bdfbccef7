"""Tests for the discrete-event kernel: ordering, processes, combinators."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Engine, Interrupt, all_of, any_of


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(5.0)
    eng.run()
    assert eng.now == 5.0


def test_events_fire_in_time_order():
    eng = Engine()
    fired = []
    for delay in (3.0, 1.0, 2.0):
        ev = eng.timeout(delay, value=delay)
        ev.add_callback(lambda e: fired.append(e.value))
    eng.run()
    assert fired == [1.0, 2.0, 3.0]


def test_simultaneous_events_fifo():
    """Ties at equal times break by scheduling order (determinism)."""
    eng = Engine()
    fired = []
    for i in range(10):
        ev = eng.timeout(1.0, value=i)
        ev.add_callback(lambda e: fired.append(e.value))
    eng.run()
    assert fired == list(range(10))


def test_process_waits_and_returns():
    eng = Engine()

    def body():
        yield eng.timeout(2.0)
        yield eng.timeout(3.0)
        return "done"

    proc = eng.process(body())
    result = eng.run(until=proc)
    assert result == "done"
    assert eng.now == 5.0


def test_process_receives_event_value():
    eng = Engine()
    seen = []

    def body():
        value = yield eng.timeout(1.0, value=42)
        seen.append(value)

    eng.process(body())
    eng.run()
    assert seen == [42]


def test_processes_can_join():
    eng = Engine()

    def child():
        yield eng.timeout(4.0)
        return 7

    def parent():
        value = yield eng.process(child())
        return value + 1

    proc = eng.process(parent())
    assert eng.run(until=proc) == 8
    assert eng.now == 4.0


def test_event_succeed_wakes_waiter():
    eng = Engine()
    gate = eng.event()
    log = []

    def waiter():
        value = yield gate
        log.append((eng.now, value))

    def opener():
        yield eng.timeout(9.0)
        gate.succeed("open")

    eng.process(waiter())
    eng.process(opener())
    eng.run()
    assert log == [(9.0, "open")]


def test_event_fail_raises_in_waiter():
    eng = Engine()
    gate = eng.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    eng.process(waiter())
    gate.fail(ValueError("boom"))
    eng.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_run_until_time_stops_clock():
    eng = Engine()
    eng.timeout(10.0)
    eng.run(until=4.0)
    assert eng.now == 4.0
    eng.run()
    assert eng.now == 10.0


def test_run_until_unfired_event_deadlocks():
    eng = Engine()
    gate = eng.event()
    with pytest.raises(RuntimeError, match="deadlock"):
        eng.run(until=gate)


def test_interrupt_process():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield eng.timeout(100.0)
            log.append("completed")
        except Interrupt as intr:
            log.append(("interrupted", eng.now, intr.cause))

    def interrupter(target):
        yield eng.timeout(5.0)
        target.interrupt("wakeup")

    proc = eng.process(sleeper())
    eng.process(interrupter(proc))
    eng.run()
    assert log == [("interrupted", 5.0, "wakeup")]


def test_interrupt_after_completion_is_noop():
    eng = Engine()

    def quick():
        yield eng.timeout(1.0)

    proc = eng.process(quick())
    eng.run()
    proc.interrupt()  # must not raise
    eng.run()


def test_all_of_collects_values():
    eng = Engine()
    events = [eng.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
    combo = all_of(eng, events)
    assert eng.run(until=combo) == [3.0, 1.0, 2.0]
    assert eng.now == 3.0


def test_all_of_empty_fires_immediately():
    eng = Engine()
    combo = all_of(eng, [])
    assert eng.run(until=combo) == []


def test_any_of_returns_first():
    eng = Engine()
    events = [eng.timeout(d, value=d) for d in (3.0, 1.0, 2.0)]
    combo = any_of(eng, events)
    index, value = eng.run(until=combo)
    assert (index, value) == (1, 1.0)
    assert eng.now == 1.0


def test_any_of_empty_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        any_of(eng, [])


def test_yield_non_event_is_type_error():
    eng = Engine()

    def bad():
        yield 42

    eng.process(bad())
    with pytest.raises(TypeError):
        eng.run()


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_clock_is_monotonic_under_arbitrary_timeouts(delays):
    """Property: processing any set of timeouts never moves time backwards."""
    eng = Engine()
    observed = []
    for d in delays:
        eng.timeout(d).add_callback(lambda e: observed.append(eng.now))
    eng.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert eng.now == max(delays)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_nested_process_end_times(pairs):
    """Property: a process sleeping a then b ends exactly at a+b."""
    eng = Engine()
    results = []

    def body(a, b):
        yield eng.timeout(a)
        yield eng.timeout(b)
        results.append(eng.now)

    starts = []
    for a, b in pairs:
        starts.append((a, b))
        eng.process(body(a, b))
    eng.run()
    assert sorted(results) == sorted(a + b for a, b in starts)


# ------------------------------------------------------------------ tickers
# Delays drawn from a few multiples of one step, so events land on the
# chains' tick times and ties between them are the common case.
STEP = 1e-4
DELAYS = st.sampled_from([0.0, STEP, 2 * STEP, 3 * STEP, 0.5 * STEP, 7 * STEP])


def _chains_trace(use_ticker, periods, starts, script, stops):
    """Chains of period ``periods[k]`` starting after ``starts[k]``, and a
    script of events that each raise or clear one chain's work flag.

    Each chain acts at a tick that finds its flag raised, and clears it.
    The reference chain polls: it checks on every tick.  The other one
    parks on a ticker while its flag is down and is woken when an event
    raises it, as the runtime's thieves are.  Returns the order in which
    events fired and chains acted.
    """
    eng = Engine()
    trace = []
    work = [False] * len(periods)
    parked = [None] * len(periods)

    def chain(k):
        yield eng.timeout(starts[k])
        while True:
            if not use_ticker or work[k]:
                yield eng.timeout(periods[k])
            else:
                parked[k] = eng.ticker(periods[k])
                yield parked[k]
            if work[k]:
                work[k] = False
                trace.append(("act", k, eng.now))

    def event(i, lead, delay, target, raise_flag):
        yield eng.timeout(lead)
        yield eng.timeout(delay)
        trace.append(("event", i, eng.now))
        work[target] = raise_flag
        if raise_flag and parked[target] is not None:
            eng.wake(parked[target])
            parked[target] = None

    for k in range(len(periods)):
        eng.process(chain(k))
    for i, (lead, delay, target, raise_flag) in enumerate(script):
        eng.process(event(i, lead, delay, target % len(periods), raise_flag))
    for stop in stops:
        eng.run(until=stop)
    return trace


@settings(max_examples=300, deadline=None)
@given(
    periods=st.lists(st.sampled_from([STEP, 2 * STEP, 3 * STEP]),
                     min_size=1, max_size=3),
    starts=st.lists(DELAYS, min_size=3, max_size=3),
    script=st.lists(
        st.tuples(DELAYS, DELAYS, st.integers(0, 2), st.booleans()),
        max_size=25),
    stops=st.lists(st.sampled_from([5 * STEP, 11 * STEP, 30 * STEP]),
                   max_size=2).map(lambda s: sorted(s) + [40 * STEP]),
)
def test_ticker_acts_where_a_polling_timeout_chain_would(
        periods, starts, script, stops):
    """Same instants and same order among equal-time events as polling."""
    want = _chains_trace(False, periods, starts, script, stops)
    got = _chains_trace(True, periods, starts, script, stops)
    assert got == want


_EARLY = 0.001
_LATE = math.nextafter(_EARLY, 1.0)  # this grid meets _EARLY's in 10 ticks


@pytest.mark.parametrize("starts, script, order", [
    # One grid: chain 0 acts at 0.0011 and parks again, first, so at
    # later ticks it stays ahead of chain 1.
    ([_EARLY, _EARLY],
     [(0.00105, 0.0, 0, True),
      (0.00155, 0.0, 0, True), (0.00155, 0.0, 1, True)], [0, 0, 1]),
    # Grids one ulp apart merge at 0.002: chain 0 ticked first on the way
    # there, so it acts first at the merged ticks.
    ([_EARLY, _LATE],
     [(0.00205, 0.0, 0, True), (0.00205, 0.0, 1, True)], [0, 1]),
    # The same, after chain 0 acted and parked again later than chain 1
    # (its stored number is the newer one).
    ([_EARLY, _LATE],
     [(0.00105, 0.0, 0, True),
      (0.00205, 0.0, 0, True), (0.00205, 0.0, 1, True)], [0, 0, 1]),
])
def test_ticker_ties_at_equal_ticks(starts, script, order):
    """Chains that tick at one instant act in the order polling gives."""
    periods = [STEP, STEP]
    want = _chains_trace(False, periods, starts, script, [0.003])
    acts = [e for e in want if e[0] == "act"]
    assert [e[1] for e in acts] == order and acts[-1][2] == acts[-2][2]
    assert _chains_trace(True, periods, starts, script, [0.003]) == want


def test_unwoken_ticker_leaves_the_heap_empty():
    eng = Engine()
    tk = eng.ticker(1.0)
    eng.run(until=5.5)
    assert not tk.triggered and eng.peek() == float("inf")
    eng.wake(tk)
    eng.run()
    assert tk.processed and eng.now == 6.0


def test_ticker_rejects_non_positive_period():
    with pytest.raises(ValueError):
        Engine().ticker(0.0)
