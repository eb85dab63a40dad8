"""``tools/livepath.py`` without the manifest: its definition listing, its
matching of definitions against reached code objects, its test-name scan
and its recorder, on a small generated module."""

import importlib.util
import threading
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "livepath.py"

SOURCE = '''\
import functools


def used():
    def inner():
        return 1
    return inner


def unused():
    return 2


@functools.lru_cache(maxsize=None)
def cached(x):
    return x


class Box:
    def method(self):
        return 3

    @property
    def size(self):
        return 4
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


livepath = _load("livepath", TOOL)


def test_unreached_lists_each_def_that_no_code_object_is(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SOURCE)
    mod = _load("livepath_probe", tmp_path / "pkg" / "mod.py")
    defs = livepath.definitions(tmp_path / "pkg")
    assert [qualname for _, _, qualname in defs] == [
        "used", "used.<locals>.inner", "unused", "cached", "Box.method", "Box.size"]
    # a decorated def is matched on its first decorator's line, as its code is
    reached = {mod.used.__code__, mod.used().__code__, mod.cached.__wrapped__.__code__,
               mod.Box.size.fget.__code__}
    assert [qualname for _, _, qualname in livepath.unreached(defs, reached)] == [
        "unused", "Box.method"]
    assert livepath.unreached(defs, set()) == defs


def test_names_in_collects_identifiers_attributes_and_imports(tmp_path):
    path = tmp_path / "test_probe.py"
    path.write_text("import os.path\nfrom flowfx.net import forward as fwd\n"
                    "value = box.size(os)\n")
    assert livepath.names_in(path) == {"path", "forward", "value", "box", "size", "os"}


def test_recording_sees_calls_on_threads_started_while_open():
    def probe():
        return 1

    codes = set()
    with livepath.recording(codes):
        worker = threading.Thread(target=probe)
        worker.start()
        worker.join()
    assert probe.__code__ in codes
