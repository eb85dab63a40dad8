"""Atomic artifact writes: a failed write leaves the previous file as it was
and no temp file beside it."""

import builtins

import numpy as np
import pytest

from flowfx import dsp, fileio, metrics, net
from flowfx.fileio import write_atomic


class Boom(RuntimeError):
    pass


class _TempFile:
    """write_atomic's temp file, with its one write replaced by
    ``write(fh, data)``."""

    def __init__(self, fh, write):
        self.fh, self._write = fh, write

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self._write(self.fh, data)


def _patch_write(monkeypatch, write):
    """Route every write_atomic write through ``write(fh, data)``."""
    monkeypatch.setattr(fileio, "open",
                        lambda *args: _TempFile(builtins.open(*args), write), raising=False)


def _half_then_raise(fh, data):
    fh.write(data[: len(data) // 2])
    raise Boom


def _write_checkpoint(path, monkeypatch):
    _patch_write(monkeypatch, _half_then_raise)
    model = net.init_model(net.ModelConfig(dim=1, hidden=(2,)), np.random.default_rng(0))
    net.save_checkpoint(path, model)


def _write_csv(path, monkeypatch):
    _patch_write(monkeypatch, _half_then_raise)
    metrics.write_csv(path, ["step", "loss"], [(1, 0.5), (2, 0.25)])


def _rows_then_raise():
    yield (1, 0.5)
    raise Boom


def _write_csv_rows(path, monkeypatch):
    # the rows fail while the bytes are built, before any file is made
    metrics.write_csv(path, ["step", "loss"], _rows_then_raise())


def _write_wav(path, monkeypatch):
    _patch_write(monkeypatch, _half_then_raise)
    dsp.write_wav(path, dsp.AudioBuffer(np.zeros(16), 48000))


@pytest.mark.parametrize("write", [_write_checkpoint, _write_csv, _write_csv_rows, _write_wav])
def test_failed_write_keeps_previous_file(write, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous")
    with pytest.raises(Boom):
        write(path, monkeypatch)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_clean_write_replaces_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    path.write_text("previous")
    seen = []

    def write(fh, data):
        fh.write(data)
        seen.append(path.read_text())  # nothing visible until the end

    _patch_write(monkeypatch, write)
    write_atomic(path, b"new")
    assert seen == ["previous"]
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
