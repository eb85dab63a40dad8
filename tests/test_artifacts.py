"""ARTIFACTS.json, the manifest ``tools/artifacts.py`` writes, is well formed
and runs every command.  Its hashes are not compared here: they depend on
the BLAS kernel of the host that wrote them, and ``tools/artifacts.py
--check`` is the comparison."""

import json
import re
from pathlib import Path

from flowfx import cli

MANIFEST = Path(__file__).resolve().parents[1] / "ARTIFACTS.json"


def test_manifest_is_well_formed_and_runs_every_command():
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["seed"] == 0
    assert {"nproc", "numpy", "scipy", "blas", "thread_env"} <= set(manifest["machine"])
    runs, files = manifest["runs"], manifest["files"]
    assert {argv[0] for argv in runs.values()} == set(cli.COMMANDS)
    assert set(runs) <= set(files)
    for name, digests in files.items():
        assert digests, name
        assert all(re.fullmatch("[0-9a-f]{64}", h) for h in digests.values()), name
