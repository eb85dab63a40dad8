"""What the host grants this process: the CPUs it may run on.

``solvers`` and ``dsp`` each run work on a second thread only when this
says two CPUs are there; both import it as their ``_cpus``.
"""

import os


def cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
