"""Atomic artifact writes: a reader sees the old file or the whole new one."""

import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode="w", **kwargs):
    """Yield a temp file beside ``path`` (making its directory if missing),
    opened as ``open(.., mode, **kwargs)`` would open it but created fresh ("x"
    for "w").  A clean exit moves it onto ``path`` with os.replace; an error
    deletes it and leaves ``path`` intact."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    os.makedirs(os.path.dirname(tmp) or os.curdir, exist_ok=True)
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
