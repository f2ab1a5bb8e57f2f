"""Time every relu-lab command in fresh interpreters on two checkouts.

    python3 tools/command_startup.py PARENT CHANGE --out BENCH_27.json

PARENT and CHANGE are two checkouts of the repository.  Each command of
COMMANDS runs REPEATS times per checkout as ``python -m relu_lab.cli``
with PYTHONPATH at the checkout's src/ and one BLAS thread, alternating
which checkout goes first; "import" is ``import relu_lab.cli`` alone.  The
wall seconds of every process, their medians, and whether the two
checkouts print and write the same bytes (every writing command runs with
--deterministic) go into the "startup" key of --out; other keys of an
existing file are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: fresh processes per command and checkout; the table gives their median
REPEATS = 7

#: name -> relu-lab arguments (None: import relu_lab.cli and exit); the
#: writing ones get --out-dir and --deterministic
COMMANDS = {
    "import": None,
    "arrangements": ["arrangements", "--dataset", "notebook"],
    "solve": ["solve", "--dataset", "notebook"],
    "flow": ["flow", "--dataset", "notebook", "--iters", "300",
             "--checkpoints", "100", "--seed", "2"],
    "certify": ["certify", "--dataset", "appendix-ortho", "--iters", "200",
                "--checkpoints", "100", "--step", "0.1"],
    "geometry-export": ["geometry-export", "--dataset", "appendix-ortho",
                        "--samples", "64"],
    "reproduce notebook": ["reproduce", "notebook"],
    "reproduce appendix-ortho": ["reproduce", "appendix-ortho"],
    "reproduce appendix-nonspikefree": ["reproduce", "appendix-nonspikefree"],
}


def once(checkout: Path, args: list[str] | None) -> tuple[float, str]:
    """(wall seconds, SHA-256 of stdout and every written file) of one
    fresh process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if args is None:
            argv = ["-c", "import relu_lab.cli"]
        else:
            argv = ["-m", "relu_lab.cli", *args]
            if args[0] != "arrangements":
                argv += ["--out-dir", out.name, "--deterministic"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=tmp,
                              capture_output=True, check=True)
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(proc.stdout)
        for path in sorted(out.rglob("*")):
            digest.update(path.name.encode() + path.read_bytes())
    return seconds, digest.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    table = {}
    for name, command in COMMANDS.items():
        seconds = {side: [] for side in sides}
        digests = {side: set() for side in sides}
        for rep in range(REPEATS):
            for side in sorted(sides, reverse=rep % 2 == 1):
                s, digest = once(sides[side], command)
                seconds[side].append(s)
                digests[side].add(digest)
        table[name] = {
            "parent_median_s": statistics.median(seconds["parent"]),
            "change_median_s": statistics.median(seconds["change"]),
            "outputs_identical": (len(digests["parent"]) == 1
                                  and digests["parent"] == digests["change"]),
            "parent_s": seconds["parent"], "change_s": seconds["change"]}
        print(f"{name:33s} {table[name]['parent_median_s']:.3f} -> "
              f"{table[name]['change_median_s']:.3f} s  identical: "
              f"{table[name]['outputs_identical']}", file=sys.stderr)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["startup"] = {"repeats": REPEATS, "commands": table}
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
