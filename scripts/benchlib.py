"""What the measurement scripts share: the package path, timing, quiet CLI
runs and the report header.

A script imports this module as its sibling (Python puts a script's own
directory first on `sys.path`), and this module puts `src/` on the path, so
every script runs from anywhere in the repository without PYTHONPATH.

Every report `write_report` writes holds the benchmark and its statistic,
then one header: the git commit (`git_sha`, and `git_dirty`, whether a
tracked file differs from it), the processor count (`nproc`) and the
Python, numpy and scipy versions, then the script's own fields. The
versions are read from the installed packages' metadata, so a script that
does not use scipy does not import it.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dgmdist.cli import main as _dgmdist  # noqa: E402


def median_ms(fn, runs):
    """Median wall time of fn() over the runs, after one untimed call."""
    fn()
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds) * 1e3


def git(*args):
    """stdout of one git command in the repository, or None if it fails."""
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cli(argv: list[str]) -> str:
    """stdout of one `dgmdist` command, run in process with its output
    captured; a non-zero exit raises with the command and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _dgmdist(argv)
    if code != 0:
        raise RuntimeError(
            f"dgmdist {' '.join(argv)} exited with {code}:\n{err.getvalue()}"
        )
    return out.getvalue()


def write_report(path, benchmark: str, statistic: str, **fields) -> None:
    """Write the report as JSON: benchmark, statistic, the header, fields."""
    status = git("status", "--porcelain", "--untracked-files=no")
    report = {
        "benchmark": benchmark,
        "statistic": statistic,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **{name: importlib.metadata.version(name) for name in ("numpy", "scipy")},
        **fields,
    }
    Path(path).write_text(json.dumps(report, indent=2) + "\n")
