"""Cold-process wall times of crum, diffed between two checkouts.

    python3 tools/process_time.py OTHER_CHECKOUT

times three commands, each in a fresh interpreter, against this checkout's
`src/` and OTHER_CHECKOUT's:

- `python -c "import crum.cli"`;
- `python -m crum.cli chain --family hermite --depth 2`;
- `python -m crum.cli chain --family q_hermite --param q=0.5 --depth 2`.

Each command runs RUNS times per checkout, the two checkouts alternating
which goes first, and the wall time of a run is that of the whole process,
interpreter start-up and imports included: the cost a shell user of
`crum chain` pays, which an in-process benchmark, having imported numpy
before its clock starts, does not see.  It prints the median wall time of
each command in seconds, per checkout, as JSON, and exits 1 when a command
fails.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

RUNS = 7
COMMANDS = {
    "import crum.cli": ["-c", "import crum.cli"],
    "chain hermite depth 2": ["-m", "crum.cli", "chain", "--family", "hermite", "--depth", "2"],
    "chain q_hermite q=0.5 depth 2": ["-m", "crum.cli", "chain", "--family", "q_hermite",
                                      "--param", "q=0.5", "--depth", "2"],
}
ROOT = pathlib.Path(__file__).resolve().parents[1]


def wall_time(checkout, args):
    """Seconds of one fresh interpreter running args on the checkout's src/."""
    env = {k: v for k, v in os.environ.items() if k != "CRUM_SEED"}
    env["PYTHONPATH"] = str(pathlib.Path(checkout).resolve() / "src")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], stdout=subprocess.DEVNULL, env=env, check=True)
    return time.perf_counter() - t0


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = {"this": ROOT, "other": pathlib.Path(argv[0])}
    times = {side: {name: [] for name in COMMANDS} for side in sides}
    try:
        for run in range(RUNS):
            order = list(sides) if run % 2 == 0 else list(sides)[::-1]
            for name, args in COMMANDS.items():
                for side in order:
                    times[side][name].append(wall_time(sides[side], args))
    except subprocess.CalledProcessError as err:
        print(f"failed: {err}", file=sys.stderr)
        return 1
    out = {"runs": RUNS, "statistic": "median wall time of a fresh process, s"}
    for side in sides:
        out[side] = {name: statistics.median(ts) for name, ts in times[side].items()}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
