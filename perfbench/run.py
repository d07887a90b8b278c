"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload homog-store-4096 --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout: the program under test is imported
from ``src/`` beside this directory, and scratch files go to
``.perfbench-work/`` there (removed on exit).  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it list every metric by name and unit.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("homog-store-4096", "points-thread-2048", "serve-burst-512")
#: What a user of the program imports before the first call.
MODULES = ("repro.core.spec", "repro.jobs", "repro.parallel", "repro.serve",
           "repro.verify")
IMPORT_REPS = 3


def import_seconds(src: Path) -> float:
    """Median wall time of a fresh interpreter importing the program.

    One in-process import is a single sample of a noisy quantity; a few
    fresh interpreters give a median.  The first also compiles the
    bytecode a new checkout lacks, and the median leaves it out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(IMPORT_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import " + ", ".join(MODULES)],
                       env=env, check=True, timeout=120)
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    # setup_s is an end-to-end metric: traced runs do not report it
    import_s = 0.0 if args.trace else import_seconds(src)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    for module in MODULES:  # off the clock: set-up reps time the rest
        importlib.import_module(module)
    import workloads

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for note in out.notes:
        print(f"# {note}")
    for name, (value, unit) in out.metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
