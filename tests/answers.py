"""Pinned answers of the CLI: SHA-256 digests of every ``--deterministic``
run in ``test_cli.WRITING_RUNS``, of its stdout and of each file it writes
except ``manifest.json``, with the numpy, scipy and BLAS versions they were
made with.  ``test_cli`` compares each run's tree with ``answers.json``.

Regenerate (only when an output is meant to change, saying why)::

    PYTHONPATH=src:tests python tests/answers.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ANSWERS = Path(__file__).with_name("answers.json")

#: what a run's out-dir path reads as in its digested stdout
OUT_DIR = "<out-dir>"


def environment() -> dict[str, str]:
    """numpy, scipy and the BLAS each of them was built against."""
    def blas(config) -> str:
        dep = config["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config(mode="dicts")),
            "scipy_blas": blas(scipy.show_config(mode="dicts"))}


def digests(stdout: str, out: Path) -> dict[str, str]:
    """SHA-256 of stdout (the out-dir path replaced by OUT_DIR) and of each
    file under out but manifest.json, keyed by relative path."""
    text = stdout.replace(str(out), OUT_DIR).encode()
    found = {"stdout": hashlib.sha256(text).hexdigest()}
    for path in sorted(out.rglob("*")):
        name = str(path.relative_to(out))
        if path.is_file() and name != "manifest.json":
            found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def main() -> None:
    from relu_lab.cli import main as cli
    from test_cli import WRITING_RUNS

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in WRITING_RUNS.items():
            out = Path(tmp) / name
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli(argv + ["--out-dir", str(out), "--deterministic"])
            if code != 0:
                sys.exit(f"{name} exited {code}")
            runs[name] = digests(stdout.getvalue(), out)
    ANSWERS.write_text(json.dumps({"environment": environment(),
                                   "runs": runs}, indent=2) + "\n")


if __name__ == "__main__":
    main()
