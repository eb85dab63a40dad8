"""Atomic artifact writes: a reader sees the old file or the whole new one.

Every artifact writer builds its bytes and hands them to ``write_atomic``,
the one function that puts an artifact on disk.
"""

import os


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: make the directory if missing,
    create a temp file beside ``path`` exclusively, write it in one call and
    move it onto ``path`` with os.replace.  On any error the temp file is
    deleted and ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    os.makedirs(os.path.dirname(tmp) or os.curdir, exist_ok=True)
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
