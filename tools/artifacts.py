"""Record the bytes of every CLI artifact, so a change can show which moved.

    python tools/artifacts.py           # run the command set, write ARTIFACTS.json
    python tools/artifacts.py --check   # run it again and compare with ARTIFACTS.json

Run it from any directory; flowfx is imported from the ``src/`` beside this
file.  Every command of ``flowfx.cli`` runs in-process through ``cli.main``
at seed 0 (see RUNS), from the repository root and into a temporary
directory that is removed afterwards.  Between them the runs reach every
row an eval report can hold and both ways of setting a value: a flag, and
a ``--config`` file (CONFIG).
The manifest holds the sha256 of each file the commands write, plus the
machine facts of ``perfbench/run.py``'s ``environment()``: the numpy, scipy
and BLAS versions, the BLAS thread environment (pinned to one thread, as
the benchmark pins it) and nproc.  Hashes depend on the BLAS kernel the CPU
selects, so ``--check`` names every machine fact that differs from the
manifest before it lists each moved, missing or extra file; it exits 1 if
there is any such file and 0 if every file matches.
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as perfbench_run  # noqa: E402  (pins one BLAS thread before numpy loads)

import numpy as np  # noqa: E402

from flowfx import cli, dsp  # noqa: E402
from flowfx.fileio import write_atomic  # noqa: E402

MANIFEST = ROOT / "ARTIFACTS.json"
SEED = 0
CLIP_SECONDS = 2.0
# Relative to the repository root, so that student.json, whose meta names
# its teacher, has the same bytes in every checkout.
TEACHER = "perfbench/data/fm_teacher.json"
# The file "train-fm-config" reads: a shorter run of a narrower model.
CONFIG = "steps = 300\nhidden = 32, 32\n"

# Each run writes into {work}/<name>; "eval" pairs two sample sets of
# different sizes and the codec input with a seeded degraded copy of it (see
# run_set), and "eval-equal" compares two sample sets of one size, for which
# eval also reports kl, clap_score and recall.
RUNS = {
    "train-fm": ["train-fm"],
    "train-fm-config": ["train-fm", "--config", "{work}/train-fm.cfg"],
    "distill": ["distill", TEACHER],
    "distill-guided": ["distill", TEACHER, "--guidance", "true", "--steps", "600"],
    "sample-dopri5-guided": ["sample", TEACHER, "--solver", "dopri5", "--cfg-scale", "2",
                             "--n", "2048"],
    "sample-dopri5": ["sample", TEACHER, "--solver", "dopri5", "--n", "2048"],
    "sample-euler-teacher": ["sample", TEACHER, "--solver", "euler", "--n", "2048"],
    "sample-euler": ["sample", "{work}/distill/student.json", "--solver", "euler",
                     "--n", "256"],
    "codec": ["codec", "{work}/real/clip.wav"],
    "eval": ["eval", "--real", "{work}/real", "--fake", "{work}/fake"],
    "eval-equal": ["eval", "--real", "{work}/sample-dopri5", "--fake",
                   "{work}/sample-euler-teacher"],
}


def _digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def run_set(work: Path) -> dict:
    """Run RUNS in order under ``work``; returns {run: {file: sha256}}, with
    the synthetic codec input under "input"."""
    real, fake = work / "real", work / "fake"
    clip = dsp.synth_signal(SEED, CLIP_SECONDS)
    dsp.write_wav(real / "clip.wav", clip)
    (work / "train-fm.cfg").write_text(CONFIG)
    files = {"input": _digests(real)}
    for name, template in RUNS.items():
        if name == "eval":
            fake.mkdir()
            shutil.copy(work / "sample-dopri5-guided" / "samples.csv", real)
            shutil.copy(work / "sample-euler" / "samples.csv", fake)
            # a copy that differs from the clip, so the audio rows measure
            # something: the codec's round trip has the input's bytes
            noise = np.random.default_rng(SEED).standard_normal(len(clip.samples))
            degraded = dsp.AudioBuffer(0.8 * clip.samples + 0.02 * noise, clip.sample_rate)
            dsp.write_wav(fake / "clip.wav", degraded)
        argv = [arg.format(work=work) for arg in template]
        code = cli.main([*argv, "--seed", str(SEED), "--out", str(work / name)])
        if code != 0:
            raise SystemExit(f"error: {name} exited {code}")
        files[name] = _digests(work / name)
    return files


def compare(recorded: dict, files: dict) -> list:
    """One line per moved, missing or extra file, in run order."""
    lines = []
    for name in dict.fromkeys([*recorded, *files]):
        want, got = recorded.get(name, {}), files.get(name, {})
        for file in sorted({*want, *got}):
            if file not in got:
                lines.append(f"missing {name}/{file}")
            elif file not in want:
                lines.append(f"extra   {name}/{file}")
            elif got[file] != want[file]:
                lines.append(f"moved   {name}/{file}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {MANIFEST.name} instead of writing it")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        files = run_set(Path(tmp))
    seconds = time.perf_counter() - start
    machine = perfbench_run.environment()
    count = sum(len(v) for v in files.values())
    if not args.check:
        manifest = {"seed": SEED, "machine": machine, "runs": RUNS, "files": files}
        write_atomic(MANIFEST, (json.dumps(manifest, indent=1, sort_keys=True) + "\n").encode())
        print(f"wrote {MANIFEST.name}: {count} files in {seconds:.1f} s")
        return 0
    manifest = json.loads(MANIFEST.read_text())
    for key, value in manifest["machine"].items():
        if machine.get(key) != value:
            print(f"machine {key}: {value} recorded, {machine.get(key)} here")
    lines = compare(manifest["files"], files)
    print("\n".join(lines) if lines else f"all {count} files match {MANIFEST.name}")
    print(f"{seconds:.1f} s")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
