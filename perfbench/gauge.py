"""Host-speed gauge: a fixed numpy loop timed all through a run.

The benchmark shares its host, whose speed changes by up to 1.5x for
seconds or for whole runs at a time, and flowfx's requests slow down
with it.  The gauge is a fixed loop of small matrix products and
``tanh``, the kind of work flowfx's own network does.  It is timed
between requests, between set-up children and, inside a training
command, between loop iterations (at most every ``EVERY_S``).  Every
end-to-end time of a run is divided by that run's ``slowdown``: the
gauge's median time over ``NOMINAL_S``.  So reported times read as on a
host where one gauge sample takes ``NOMINAL_S``; the wall-clock figures
are printed beside them.

The gauge is benchmark code, so a change to flowfx does not change what
it measures; it only removes the part of a run's time that the host's
speed explains.
"""

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_S = 0.005  # gauge seconds that reported times are scaled to
EVERY_S = 0.1      # least interval between gauge samples inside a command
ROUNDS = 40        # products per sample: about 5 ms on a 2-vCPU host


class Gauge:
    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((128, 128))
        self.samples: list = []
        self.inside = 0.0  # gauge seconds spent inside the current request
        self._last = time.perf_counter()

    def sample(self) -> float:
        """Time one pass of the fixed loop; returns its seconds."""
        a = self._a
        start = time.perf_counter()
        for _ in range(ROUNDS):
            np.tanh(a @ a * 0.01)
        self._last = time.perf_counter()
        seconds = self._last - start
        self.samples.append(seconds)
        return seconds

    def slowdown(self) -> float:
        """The run's median gauge time over ``NOMINAL_S``."""
        return statistics.median(self.samples) / NOMINAL_S

    @contextmanager
    def in_loop(self, module, attr: str):
        """While open, ``module.attr`` (a function a training loop calls
        once per iteration and looks up as a module attribute or global)
        first samples the gauge when ``EVERY_S`` has passed since the last
        sample.  Those seconds add to ``inside``, for the caller to take
        out of the request's time."""
        fn = getattr(module, attr)
        gauge = self

        @functools.wraps(fn)
        def paced(*args, **kwargs):
            if time.perf_counter() - gauge._last >= EVERY_S:
                gauge.inside += gauge.sample()
            return fn(*args, **kwargs)

        setattr(module, attr, paced)
        try:
            yield
        finally:
            setattr(module, attr, fn)
