"""driftmc benchmark: one workload, one run, one JSON result line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload bs-otm-run --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record (environment, every computed value, per-repetition
timings).  The record is also written under ``.perfbench_out/results``,
and a traced run writes the spans of its last traced job beside it.
The exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root):
    """Commit of a git checkout at ``root``, or None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root, threads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": threads,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(root),
    }


def metrics_for(values, listed):
    """The result's ``metrics`` object: each listed metric with its value
    and the unit BENCHMARK.json gives it."""
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def main(argv=None):
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "driftmc" / "__init__.py").is_file():
        print(f"driftmc sources not found under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(1, str(src))
    from measure import measure
    from workloads import WORKLOADS

    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]
    threads = len(os.sched_getaffinity(0))
    out_root = root / ".perfbench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = out_root / f"{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), threads, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = not result.failures
    failed = min(len(result.failures), result.attempted)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root, threads),
        "correct": correct, "failures": result.failures,
        "failed_frac": failed / result.attempted,
        "values": result.values,
        **result.record,
    }
    metrics = metrics_for(result.values, listed) if correct else {}
    results_dir = out_root / "results"
    results_dir.mkdir(exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        (results_dir / f"{tag}.spans.json").write_text(json.dumps(spans) + "\n")
    record_text = json.dumps(record, sort_keys=True, default=repr)
    (results_dir / f"{tag}.json").write_text(record_text + "\n")
    print(record_text)
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
