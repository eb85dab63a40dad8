import threading
import time

import pytest

from flowfx import host


@pytest.mark.parametrize("wanted, cpus", [(False, 2), (True, 1), (False, 1)])
def test_pair_runs_f_then_g_here_unless_wanted_on_two_cpus(wanted, cpus, monkeypatch,
                                                           recorded_futures):
    monkeypatch.setattr(host, "cpus", lambda: cpus)
    calls = []

    def record(name):
        def call(x):
            calls.append((name, threading.current_thread().name))
            return x
        return call

    with host.pair("flowfx-test", wanted) as both:
        assert both(record("f"), record("g"), 3) == (3, 3)
    assert calls == [("f", threading.current_thread().name),
                     ("g", threading.current_thread().name)]
    assert recorded_futures == []


def test_both_waits_for_g_when_f_raises(monkeypatch, recorded_futures):
    # the caller gets f's error only once g is done, also while the pool
    # lives on for further calls
    monkeypatch.setattr(host, "cpus", lambda: 2)
    with host.pair("flowfx-test", True) as both:
        with pytest.raises(ZeroDivisionError):
            both(lambda s: 1 / 0, time.sleep, 0.05)
        assert len(recorded_futures) == 1 and recorded_futures[0].done()
        assert both(abs, abs, -2) == (2, 2)
    assert not any(t.name.startswith("flowfx-test") for t in threading.enumerate())
