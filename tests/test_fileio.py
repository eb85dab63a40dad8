"""Atomic artifact writes: a failed write leaves the previous file as it was
and no temp file beside it."""

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from flowfx import dsp, metrics, net
from flowfx.fileio import atomic_write


class Boom(RuntimeError):
    pass


def _half_then_raise(*args, **kwargs):
    fh = next(a for a in args if hasattr(a, "write"))
    fh.write(b"partial" if "b" in fh.mode else "partial")
    raise Boom


def _rows_then_raise():
    yield (1, 0.5)
    raise Boom


def _write_checkpoint(path, monkeypatch):
    # the checkpoint text is whole before its one write: fail that write
    real = net.atomic_write

    @contextmanager
    def failing_write(*args, **kwargs):
        with real(*args, **kwargs) as fh:
            yield SimpleNamespace(mode=fh.mode, write=lambda text: _half_then_raise(fh))

    monkeypatch.setattr(net, "atomic_write", failing_write)
    model = net.init_model(net.ModelConfig(dim=1, hidden=(2,)), np.random.default_rng(0))
    net.save_checkpoint(path, model)


def _write_csv(path, monkeypatch):
    metrics.write_csv(path, ["step", "loss"], _rows_then_raise())


def _write_wav(path, monkeypatch):
    monkeypatch.setattr(dsp, "_write_wave", _half_then_raise)
    dsp.write_wav(path, dsp.AudioBuffer(np.zeros(16), 48000))


@pytest.mark.parametrize("write", [_write_checkpoint, _write_csv, _write_wav])
def test_failed_write_keeps_previous_file(write, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous")
    with pytest.raises(Boom):
        write(path, monkeypatch)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_clean_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "artifact"
    path.write_text("previous")
    with atomic_write(path) as fh:
        fh.write("new")
        assert path.read_text() == "previous"  # nothing visible until the end
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
