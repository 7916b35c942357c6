import pytest

from asmisim.simkernel import Kernel, SchedulingInPast

# Two actor classes for the tie-break tests; the second is ranked after the first.
RANK_SENSOR, RANK_ROUTER = 1, 3


def test_fires_in_time_order():
    kernel = Kernel()
    log = []
    for t in [30, 10, 20]:
        kernel.schedule(t, (RANK_SENSOR, 0, t), lambda t=t: log.append(t))
    kernel.run_until(100)
    assert log == [10, 20, 30]


def test_same_instant_ordered_by_priority_key():
    kernel = Kernel()
    log = []
    kernel.schedule(5, (RANK_ROUTER, 1, 0), lambda: log.append("router1"))
    kernel.schedule(5, (RANK_SENSOR, 2, 0), lambda: log.append("sensor2"))
    kernel.schedule(5, (RANK_SENSOR, 1, 0), lambda: log.append("sensor1"))
    kernel.schedule(5, (RANK_ROUTER, 0, 0), lambda: log.append("router0"))
    kernel.run_until(5)
    assert log == ["sensor1", "sensor2", "router0", "router1"]


def test_same_key_falls_back_to_insertion_order():
    kernel = Kernel()
    log = []
    kernel.schedule(7, (RANK_SENSOR, 1, 0), lambda: log.append("first"))
    kernel.schedule(7, (RANK_SENSOR, 1, 0), lambda: log.append("second"))
    kernel.schedule(7, (RANK_SENSOR, 1, 0), lambda: log.append("third"))
    kernel.run_until(7)
    assert log == ["first", "second", "third"]


def test_run_until_is_inclusive_and_advances_now():
    kernel = Kernel()
    log = []
    kernel.schedule(10, (RANK_SENSOR, 0, 0), lambda: log.append(10))
    kernel.schedule(11, (RANK_SENSOR, 0, 1), lambda: log.append(11))
    fired = kernel.run_until(10)
    assert fired == 1
    assert log == [10]
    assert kernel.run_until(10_000) == 1
    assert log == [10, 11]


def test_scheduling_in_past_rejected():
    kernel = Kernel()
    kernel.run_until(50)
    with pytest.raises(SchedulingInPast):
        kernel.schedule(49, (RANK_SENSOR, 0, 0), lambda: None)
    # exactly "now" is allowed
    kernel.schedule(50, (RANK_SENSOR, 0, 0), lambda: None)


def test_run_until_backwards_rejected():
    kernel = Kernel()
    kernel.run_until(10)
    with pytest.raises(ValueError):
        kernel.run_until(9)


def test_action_scheduling_at_current_instant_fires_in_same_pass():
    kernel = Kernel()
    log = []

    def outer():
        log.append("outer")
        kernel.schedule(5, (RANK_ROUTER, 0, 0), lambda: log.append("inner"))

    kernel.schedule(5, (RANK_SENSOR, 0, 0), outer)
    kernel.run_until(5)
    assert log == ["outer", "inner"]


def test_chained_self_rescheduling():
    kernel = Kernel()
    log = []

    def tick(t):
        def action():
            log.append(t)
            if t + 10 <= 50:
                kernel.schedule(t + 10, (RANK_SENSOR, 0, t + 10), tick(t + 10))

        return action

    kernel.schedule(10, (RANK_SENSOR, 0, 10), tick(10))
    kernel.run_until(100)
    assert log == [10, 20, 30, 40, 50]


def test_replay_same_schedule_identical_sequence():
    def build():
        kernel = Kernel()
        log = []
        for i, t in enumerate([5, 3, 3, 9, 1]):
            kernel.schedule(t, (RANK_SENSOR, i % 2, i), lambda i=i, t=t: log.append((t, i)))
        kernel.run_until(20)
        return log

    assert build() == build()


def test_schedule_passes_args_to_callable():
    kernel = Kernel()
    log = []
    kernel.schedule(3, (RANK_SENSOR, 0, 0), lambda a, b: log.append((a, b)), "a", 2)
    kernel.schedule(4, (RANK_SENSOR, 0, 0), log.append, "one")
    kernel.run_until(10)
    assert log == [("a", 2), "one"]


def test_args_events_and_lambdas_share_one_order():
    kernel = Kernel()
    log = []
    kernel.schedule(5, (RANK_ROUTER, 0, 0), log.append, "router")
    kernel.schedule(5, (RANK_SENSOR, 1, 0), lambda: log.append("sensor1-first"))
    kernel.schedule(5, (RANK_SENSOR, 1, 0), log.append, "sensor1-second")
    kernel.schedule(5, (RANK_SENSOR, 0, 1), lambda: log.append("sensor0"))
    kernel.schedule(4, (RANK_ROUTER, 0, 0), log.append, "earlier")
    kernel.run_until(5)
    assert log == ["earlier", "sensor0", "sensor1-first", "sensor1-second", "router"]

