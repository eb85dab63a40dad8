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


def test_manifest_reads_a_config_file_and_compares_equal_size_sets():
    # eval reports kl, clap_score and recall only when the real and fake
    # sets are the same size, and load_config_file runs only under --config
    runs = json.loads(MANIFEST.read_text())["runs"]
    assert any("--config" in argv for argv in runs.values())

    def sample_rows(directory):
        """The --n of the sample run that writes ``directory``, else None."""
        argv = runs.get(directory.removeprefix("{work}/"), [])
        return argv[argv.index("--n") + 1] if argv[:1] == ["sample"] else None

    sizes = [(sample_rows(argv[argv.index("--real") + 1]),
              sample_rows(argv[argv.index("--fake") + 1]))
             for argv in runs.values() if argv[0] == "eval"]
    assert any(real is not None and real == fake for real, fake in sizes)
