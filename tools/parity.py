"""Result-file digests of the famstream CLI on the seed-11 fixtures.

Regenerates the full and small synthetic fixtures (seed 11, the sizes of
tests/conftest.py's benchmark_data and small_data, as one file each split at
2018-11), runs run, grid, baseline, sweep-tau and select-features on both in
subprocesses against the chosen source tree (run four times: at the defaults
(OKM), once each with SOM and BSAS as the online clusterer, so that every
algorithm's emission ids reach assignments.csv and online_state.json, and
with every growth switch off and a uniform five-neighbour vote at tau 0, so
that the reference set and the member lists hold different rows;
select-features twice: with its default clusterers, and with DBSCAN alone at
a setting that leaves no noise, so that DBSCAN's labels are scored), runs
`run` once more on a JSONL copy of the small fixture so that both loaders are
covered, and prints one `path sha256` line per result file, headed by the
BLAS thread setting. Two
source trees give byte-identical results when their outputs are equal:

    python tools/parity.py > change.txt
    python tools/parity.py --src /path/to/parent/src > parent.txt
    diff parent.txt change.txt

OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are set to --threads (default 1);
`--threads default` leaves both unset. Result bytes should not depend on
them; `--compare-threads 1,4` runs everything at both settings, prints each
result file whose bytes differ, and exits 1 if any do:

    python tools/parity.py --compare-threads 1,4

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
    ("run-som", ["run", "--repeats", "1", "--online-algorithm", "som"]),
    ("run-bsas", ["run", "--repeats", "1", "--online-algorithm", "bsas"]),
    ("run-ablate", ["run", "--repeats", "1", "--freeze-members", "--no-grow-reference",
                    "--freeze-centroids", "--wknn-weighting", "uniform", "--wknn-k", "5",
                    "--tau", "0"]),
    ("grid", ["grid", "--repeats", "2", "--cluster-counts", "4-6"]),
    ("baseline", ["baseline", "--repeats", "2", "--cluster-counts", "4,7"]),
    ("tau", ["sweep-tau"]),
    ("select", ["select-features"]),
    ("select-dbscan", ["select-features", "--clusterers", "dbscan", "--dbscan-eps", "5",
                       "--dbscan-min-samples", "1", "--candidates", "20,40"]),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def result_digests(src: str, threads: str) -> tuple[str, dict[str, str]]:
    """The BLAS thread setting and the sha256 of every result file, with the
    famstream package taken from src and threads pinned as --threads says."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    for var in THREAD_VARS:
        env.pop(var, None)
        if threads != "default":
            env[var] = threads
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
        digests = {path.relative_to(work).as_posix(): _sha256(path)
                   for path in sorted(p for p in work.glob("*/**/*") if p.is_file())}
    return setting or "default (unset)", digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(SRC),
                        help="source tree holding the famstream package (default: this repo's)")
    parser.add_argument("--threads", default="1",
                        help="BLAS thread count to pin, or 'default' (default: 1)")
    parser.add_argument("--compare-threads", metavar="A,B",
                        help="run at both thread settings and list the result files that differ")
    args = parser.parse_args(argv)

    if args.compare_threads is None:
        setting, digests = result_digests(args.src, args.threads)
        print(f"# BLAS threads: {setting}")
        for path, digest in digests.items():
            print(f"{path} {digest}")
        return 0
    settings = args.compare_threads.split(",")
    if len(settings) != 2:
        parser.error(f"--compare-threads takes two settings, got {args.compare_threads!r}")
    (first, a), (second, b) = (result_digests(args.src, t) for t in settings)
    differ = sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))
    for path in differ:
        print(path)
    print(f"# {len(differ)} of {len(a.keys() | b.keys())} result files differ "
          f"between BLAS threads {first} and {second}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
