"""Regenerate the checkpoints that the ring-sample and ring-distill
workloads read: one default ``train-fm`` run and one default ``distill``
run on its teacher, both at seed 0.

    python3 perfbench/make_checkpoints.py

Run from the repository root.  The files are stored so that a change to
the training code cannot change the fields the samplers integrate; the
ring-sample workload checks their dopri5 NFE (workloads.CHECKPOINT_NFE).
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"
sys.path.insert(0, str(DATA.parent.parent / "src"))

from flowfx import cli  # noqa: E402


def main() -> int:
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=DATA) as tmp:
        if cli.main(["train-fm", "--seed", "0", "--out", tmp]) != 0:
            return 1
        shutil.copyfile(Path(tmp) / "fm_teacher.json", DATA / "fm_teacher.json")
        teacher = os.path.relpath(DATA / "fm_teacher.json")
        if cli.main(["distill", teacher, "--seed", "0", "--out", tmp]) != 0:
            return 1
        shutil.copyfile(Path(tmp) / "student.json", DATA / "student.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
