"""End-to-end contract of one scenario of the driftmc command line.

Usage: python .github/check_scenario.py CONFIG MIN_VR STEPS

Runs ``driftmc`` on the run config file CONFIG and checks that:

- the config ``validate`` prints is a fixed point of ``validate`` and is the
  ``resolved_config.json`` that ``run`` writes, byte for byte;
- the training trace has STEPS entries, the resolved config's
  ``epochs * steps_per_epoch``, and no halt;
- every comparison row has a VR of at least MIN_VR, and both of its
  reports carry a knock-out fraction exactly when the config sets
  ``payoff.barrier_moneyness``;
- ``price`` reproduces the run's first plain report, and
  ``price --checkpoint`` its first comparison row;
- a one-thread run writes the artifacts of the two-thread run, byte for
  byte;
- ``train --threads 2`` writes the run's checkpoint and training trace.

Every output goes to a directory next to CONFIG, named after it with
``-check`` appended.  The first failed check exits non-zero, naming the
scenario (CONFIG's name) and the check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The files a run writes identically at every thread count.
ARTIFACTS = ("reports.json", "checkpoint.json", "training_trace.json",
             "resolved_config.json")


def driftmc(*args):
    """Run the command line on ``args``; its stdout as bytes."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "driftmc.cli", *map(str, args)],
        env=dict(os.environ, PYTHONPATH=path), check=True,
        stdout=subprocess.PIPE).stdout


def check(config, min_vr, budget):
    name = config.stem

    def require(ok, what):
        if not ok:
            sys.exit(f"{name}: {what}")

    work = config.with_name(f"{name}-check")
    work.mkdir(exist_ok=True)
    resolved = driftmc("validate", "--config", config)
    (work / "resolved.json").write_bytes(resolved)
    require(driftmc("validate", "--config", work / "resolved.json")
            == resolved, "the resolved config is no fixed point of validate")

    run = work / "run"
    driftmc("run", "--config", config, "--out-dir", run, "--threads", 2)
    require((run / "resolved_config.json").read_bytes() == resolved,
            "run's resolved_config.json differs from validate's output")

    cfg = json.loads(resolved)
    trace = json.loads((run / "training_trace.json").read_text())
    steps = cfg["training"]["epochs"] * cfg["training"]["steps_per_epoch"]
    require(len(trace["v_hat"]) == steps == budget
            and trace["halted_reason"] is None,
            f"training ran {len(trace['v_hat'])} of {steps} steps, not "
            f"{budget}, halted_reason {trace['halted_reason']!r}")

    rows = json.loads((run / "reports.json").read_text())["comparison"]
    knockout = cfg["payoff"]["barrier_moneyness"] is not None
    bad = [row for row in rows if not (
        row["vr"] >= min_vr
        and (row["plain"]["theta"] is not None) == knockout
        and (row["importance"]["theta"] is not None) == knockout)]
    require(rows and not bad,
            f"VR below {min_vr}, or a knock-out fraction "
            f"{'missing' if knockout else 'reported'}: {bad}")

    mc, row = work / "mc.json", work / "row.json"
    driftmc("price", "--config", config, "--out", mc, "--threads", 2)
    driftmc("price", "--config", config, "--checkpoint",
            run / "checkpoint.json", "--out", row, "--threads", 2)
    want = [rows[0]["plain"], rows[0]]
    got = [json.loads(path.read_text()) for path in (mc, row)]
    require(got == want, "price and price --checkpoint differ from run: "
                         f"{got} != {want}")

    one = work / "run-1"
    driftmc("run", "--config", config, "--out-dir", one, "--threads", 1)
    for artifact in ARTIFACTS:
        require((run / artifact).read_bytes() == (one / artifact).read_bytes(),
                f"{artifact} differs between 2 threads and 1")

    train = work / "train"
    driftmc("train", "--config", config, "--out-dir", train, "--threads", 2)
    for artifact in ("checkpoint.json", "training_trace.json"):
        require((run / artifact).read_bytes()
                == (train / artifact).read_bytes(),
                f"train's {artifact} differs from run's")
    print(f"{name}: every check passed")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    check(Path(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3]))
