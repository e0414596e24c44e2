"""The repo benchmark: sweeps through run_shard -> merge -> checker.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kernel-huge --seed 1 \\
        --seconds 30 --trace 0

Each repetition runs in a fresh Python process (``rep.py``), one after
another, so ``ru_maxrss`` and the instance cache never leak between
repetitions.  With ``--trace 0`` repetitions run until ``--seconds`` is
spent and the end-to-end metrics are their medians; with ``--trace 1``
the first half of the budget runs untraced repetitions (the baseline of
``obs.overhead_ratio``) and the rest traced ones, whose medians give the
per-layer metrics.  Every repetition's record is printed with a host
stamp; the last stdout line is the JSON result.  The exit code is 0 only
if every merged coloring checked valid and every repetition of the seed
produced the same fingerprint and CONGEST totals.  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from rep import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The tuning seed, used when ``--seed`` is omitted.  README.md names the
#: held-out seed, which no tuning used.
DEFAULT_SEED = 1

#: A run still busy this long after it started kills its repetition and
#: fails without a result, so the command always ends within 180 s.
RUN_LIMIT_S = 170

#: name -> (unit, better); ``--trace 0`` reports these.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: name -> (unit, better); ``--trace 1`` reports these.  README.md gives
#: each one's layer and the end-to-end metric it should move.
PER_LAYER = {
    "workloads.builds": ("count", "lower"),
    "workloads.hit_ratio": ("ratio", "higher"),
    "workloads.prebuild_s": ("s", "lower"),
    "workloads.csr_builds": ("count", "lower"),
    "workloads.square_builds": ("count", "lower"),
    "arrays.csr_s": ("s", "lower"),
    "arrays.square_s": ("s", "lower"),
    "congest.plan_s": ("s", "lower"),
    "congest.bulk_rng_s": ("s", "lower"),
    "congest.rounds": ("count", "lower"),
    "congest.messages": ("count", "lower"),
    "congest.bits": ("bits", "lower"),
    "vectorized.kernel_s": ("s", "lower"),
    "vectorized.kernel_calls": ("count", "higher"),
    "vectorized.fallbacks": ("count", "lower"),
    "vectorized.kernel_share": ("ratio", "higher"),
    "fastpath.run_s": ("s", "lower"),
    "fastpath.rounds_per_s": ("rounds/s", "higher"),
    "sweep.glue_s": ("s", "lower"),
    "sweep.cells": ("count", "higher"),
    "sweep.cell_s.p50": ("s", "lower"),
    "sweep.cell_s.p99": ("s", "lower"),
    "shards.manifest_s": ("s", "lower"),
    "shards.checkpoint_s": ("s", "lower"),
    "shards.checkpoint_bytes": ("bytes", "lower"),
    "shards.merge_s": ("s", "lower"),
    "verify.check_s": ("s", "lower"),
    "verify.invalid": ("count", "lower"),
    "obs.traced_s": ("s", "lower"),
    "obs.overhead_ratio": ("ratio", "lower"),
    "unattributed_s": ("s", "lower"),
}


class RepFailed(RuntimeError):
    """A repetition process exited non-zero or printed no record."""


def host_stamp() -> Dict:
    """What a result must match to be compared with another one."""
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout without .git: src_sha256 identifies it
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_rep(
    workload: str,
    seed: int,
    workdir: Path,
    trace: bool,
    corrupt: bool,
    timeout: float,
) -> Dict:
    """One repetition in a fresh process; its JSON record."""
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--workdir",
        str(workdir),
    ]
    if trace:
        cmd.append("--trace")
    if corrupt:
        cmd.append("--corrupt")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(
            f"repetition exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    record = json.loads(lines[-1])
    record["process_s"] = elapsed
    return record


def run_reps(
    workload: str,
    seed: int,
    workdir: Path,
    trace: bool,
    corrupt: bool,
    until: float,
    limit: float,
) -> List[Dict]:
    """Repetitions while the next one would end no later than half a
    repetition after ``until`` (a ``time.perf_counter`` value), so their
    count is the one nearest the budget; at least one.  Stops after a
    repetition with failed cells: the run is not correct anyway."""
    records: List[Dict] = []
    while True:
        timeout = max(1.0, limit - time.perf_counter())
        records.append(
            run_rep(workload, seed, workdir, trace, corrupt, timeout)
        )
        typical = statistics.median(r["process_s"] for r in records)
        if records[-1]["failed"] or time.perf_counter() + typical / 2 > until:
            return records


def median_of(records: List[Dict], key) -> float:
    return statistics.median(key(r) for r in records)


def per_layer(untraced: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced repetitions."""

    def layer(name):
        return median_of(traced, lambda r: r["layers"][name])

    def cache(name):
        return median_of(traced, lambda r: r["cache"][name])

    hits, misses = cache("hits"), cache("misses")
    untraced_total = median_of(untraced, lambda r: r["setup_s"] + r["wall_s"])
    metrics = {
        name: layer(name)
        for name in PER_LAYER
        if name in traced[0]["layers"]
    }
    metrics.update(
        {
            "workloads.builds": cache("builds"),
            "workloads.hit_ratio": hits / (hits + misses)
            if hits + misses
            else 0.0,
            "workloads.csr_builds": cache("csr_builds"),
            "workloads.square_builds": cache("square_builds"),
            "congest.rounds": traced[0]["congest"]["rounds"],
            "congest.messages": traced[0]["congest"]["messages"],
            "congest.bits": traced[0]["congest"]["bits"],
            "shards.checkpoint_bytes": median_of(
                traced, lambda r: r["checkpoint_bytes"]
            ),
            "verify.invalid": median_of(traced, lambda r: r["invalid"]),
            "obs.overhead_ratio": layer("obs.traced_s") / untraced_total,
        }
    )
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="corrupt one merged coloring in every repetition "
        "(self-test: the run must fail)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
            "is missing",
            file=sys.stderr,
        )
        return 2

    start = time.perf_counter()
    limit = start + RUN_LIMIT_S
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        untraced = run_reps(
            args.workload,
            args.seed,
            workdir,
            False,
            args.corrupt,
            start + args.seconds / (2 if args.trace else 1),
            limit,
        )
        traced = []
        if args.trace:
            traced = run_reps(
                args.workload,
                args.seed,
                workdir,
                True,
                args.corrupt,
                start + args.seconds,
                limit,
            )
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    host = host_stamp()
    records = untraced + traced
    for record in records:
        record.update(workload=args.workload, host=host)
        print("record " + json.dumps(record, separators=(",", ":")))

    attempted = sum(r["cells"] for r in records)
    failed = sum(r["failed"] for r in records)
    same_seed_same_output = all(
        (r["fingerprint_sha256"], r["congest"])
        == (records[0]["fingerprint_sha256"], records[0]["congest"])
        for r in records
    )
    correct = failed == 0 and same_seed_same_output
    if args.trace:
        values = per_layer(untraced, traced)
        table = PER_LAYER
    else:
        values = {
            "wall_s": median_of(untraced, lambda r: r["wall_s"]),
            "setup_s": statistics.median(
                s for r in untraced for s in r["setup_samples"]
            ),
            "peak_rss_mb": median_of(untraced, lambda r: r["peak_rss_mb"]),
        }
        table = END_TO_END
    metrics = {
        name: {"value": values[name], "unit": table[name][0]}
        for name in table
    }
    print(
        f"{args.workload} seed={args.seed}: {len(untraced)} untraced + "
        f"{len(traced)} traced repetitions; fail_ratio = "
        f"{failed}/{attempted} cells; fingerprint "
        f"{records[0]['fingerprint_sha256'][:16]}"
        + ("" if same_seed_same_output else " DIFFERS between repetitions")
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
