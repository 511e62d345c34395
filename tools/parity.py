"""Result-file digests of the famstream CLI on the seed-11 fixtures.

Regenerates the full and small synthetic fixtures (seed 11, the sizes of
tests/conftest.py's benchmark_data and small_data, as one file each split at
2018-11), runs run, grid, baseline, sweep-tau and select-features on both in
subprocesses against the chosen source tree, runs `run` once more on a JSONL
copy of the small fixture so that both loaders are covered, and prints one
`path sha256` line per result file, headed by the BLAS thread setting. Two
source trees give byte-identical results when their outputs are equal:

    python tools/parity.py > change.txt
    python tools/parity.py --src /path/to/parent/src > parent.txt
    diff parent.txt change.txt

Result bytes depend on the BLAS thread count (fit_pca's covariance product
is threaded), so OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are pinned: to 1
unless --threads says otherwise; `--threads default` leaves both unset.
Commands run from a temporary directory with relative paths, so report.json
holds the same paths on every machine.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CUTOFF = "2018-11"

MAKE_FIXTURES = """
from famstream.data import save_dataset
from famstream.synthetic import make_family_dataset
save_dataset(make_family_dataset(seed=11), "full.csv")
small = make_family_dataset(seed=11, corpus_per_family=150, stream_known_per_family=40,
                            stream_new_per_family=80)
save_dataset(small, "small.csv")
save_dataset(small, "small.jsonl")
"""

COMMANDS = (
    ("run", ["run", "--repeats", "3"]),
    ("grid", ["grid", "--repeats", "2", "--cluster-counts", "4-6"]),
    ("baseline", ["baseline", "--repeats", "2", "--cluster-counts", "4,7"]),
    ("tau", ["sweep-tau"]),
    ("select", ["select-features"]),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(SRC),
                        help="source tree holding the famstream package (default: this repo's)")
    parser.add_argument("--threads", default="1",
                        help="BLAS thread count to pin, or 'default' (default: 1)")
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    for var in THREAD_VARS:
        env.pop(var, None)
        if args.threads != "default":
            env[var] = args.threads
    with tempfile.TemporaryDirectory(prefix="famstream-parity-") as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, "-c", MAKE_FIXTURES], cwd=work, env=env, check=True)
        runs = [(f"{fixture}.csv", f"{fixture}/{name}", command)
                for fixture in ("full", "small") for name, command in COMMANDS]
        runs.append(("small.jsonl", "small-jsonl/run", dict(COMMANDS)["run"]))
        for data, outdir, command in runs:
            subprocess.run(
                [sys.executable, "-m", "famstream", *command, "--data", data,
                 "--cutoff", CUTOFF, "-o", outdir],
                cwd=work, env=env, check=True, stdout=subprocess.DEVNULL,
            )
        setting = " ".join(f"{var}={env[var]}" for var in THREAD_VARS if var in env)
        print(f"# BLAS threads: {setting or 'default (unset)'}")
        for path in sorted(p for p in work.glob("*/**/*") if p.is_file()):
            print(f"{path.relative_to(work).as_posix()} {_sha256(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
