"""What the host grants this process, and the second thread of a pair.

``pair`` runs the second of two independent computations on a second
thread when the work is past the size its caller measured a second thread
to pay from and the process may use two CPUs, and both serially otherwise.
Its callers are ``solvers`` (a guided request's two branches) and
``dsp.spectral_l1`` (the two sides of a pair).  numpy releases the GIL in
the array math, so the two overlap; the bits are those of the serial calls.
The one other place flowfx starts threads is ``cli.cmd_eval``: its pool of
``--workers`` threads loads the files and scores each WAV pair, and a
spectral side large enough there starts a ``pair`` worker of its own.
"""

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager


def cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def pair(name: str, wanted: bool):
    """Yield ``both(f, g, *args)``, which returns ``(f(*args), g(*args))``.

    When ``wanted`` and the process may use two CPUs, ``g`` runs on a
    one-worker pool whose thread is named ``name``, in a copy of the
    caller's context (so the caller's numpy error state holds there too),
    while ``f`` runs on the calling thread; ``both`` waits for ``g`` even
    when ``f`` raises, and the pool is joined when the ``with`` exits, so
    no worker outlives it and a child forked later makes its own.
    Otherwise ``f`` and then ``g`` run on the calling thread.
    """
    if not (wanted and cpus() >= 2):
        yield lambda f, g, *args: (f(*args), g(*args))
        return
    with ThreadPoolExecutor(1, name) as pool:
        def both(f, g, *args):
            pending = pool.submit(contextvars.copy_context().run, g, *args)
            try:
                first = f(*args)
            finally:
                wait([pending])
            return first, pending.result()

        yield both
