"""privtext benchmark: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Lines starting with '#' describe the
environment, the workload and its metrics by name and unit; the last line is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"); with --trace 1 they are the per-layer ones ("per_layer").

    python3 perfbench/run.py --workload all --seed N --seconds S

runs every workload in its own process and prints a table of their
end-to-end metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("lac-smooth-5k-d300", "lac-wide-1k", "cli-density-5k", "audit-1k")

# One BLAS thread (nproc is 2 on the reference box): two threads measured
# wider run-to-run spreads on a shared 2-core machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "words_per_s": "words/s", "peak_rss_mb": "MiB"}
NAMED_UNITS = {
    "pipeline_words_per_s": "words/s",
    "perturb_tokens_per_s": "tokens/s",
    "matrix_s": "s",
    "verify_s": "s",
    "attack_s": "s",
}


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy
    import scipy

    l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size")
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_per_core": l2.read_text().strip() if l2.is_file() else None,
    }


def _run_one(args) -> int:
    from perfbench.bench import Tally, run_traced, run_untraced
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print("# env " + json.dumps(_environment(), sort_keys=True))
    print("# workload " + json.dumps(workload.describe(), sort_keys=True))
    tally = Tally()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        inputs = workload.prepare(args.seed, workdir)
        if args.trace:
            metrics = run_traced(workload, inputs, args.seconds, tally)
        else:
            values, named, n_ops = run_untraced(workload, inputs, args.seconds, tally)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            print(f"# medians over {n_ops} operations and {workload.setup_reps} set-ups")
            for key, value in {**values, **named}.items():
                unit = END_TO_END_UNITS.get(key) or NAMED_UNITS[key]
                print(f"# metric {key} = {value:.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass
    print(f"# metric failed_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            rows.append(False)
            continue
        for line in proc.stdout.splitlines():
            if line.startswith("# metric "):
                print(f"{name:20s} {line[len('# metric '):]}")
        rows.append(json.loads(proc.stdout.splitlines()[-1])["correct"])
    return 0 if all(rows) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "privtext" / "__init__.py").is_file():
        print(f"error: no privtext sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
