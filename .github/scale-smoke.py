"""Scale smoke test: ``simulate`` and then ``analyze`` on 10^7 iid packets.

Each command runs in a fresh ``python -W error -m vlcrelay.cli`` child
against this checkout's ``src`` tree; the child is reaped with
``os.wait4`` and its own peak RSS is checked against a bound.  Exits 1
when a command fails or peaks above its bound:

    python3 .github/scale-smoke.py [--n 10000000]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BOUND_MB = {"simulate": 300.0, "analyze": 160.0}


def run_cli(args: list[str], cwd: str) -> tuple[int, float, float]:
    """Exit code, peak RSS in MB and wall seconds of one CLI command."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-W", "error", "-m", "vlcrelay.cli", *args],
                            cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10**7, help="packets to simulate")
    n = parser.parse_args().n
    ok = True
    with tempfile.TemporaryDirectory() as work:
        for command, args in (
            ("simulate", ["--mode", "broadcast", "--per", "0.01", "--n", str(n),
                          "--seed", "1", "--out", "trace.vlct", "--summary", "summary.txt"]),
            ("analyze", ["trace.vlct", "--clusters-out", "clusters.csv",
                         "--report-out", "report.txt"]),
        ):
            code, rss_mb, seconds = run_cli([command, *args], work)
            passed = code == 0 and rss_mb <= BOUND_MB[command]
            print(f"{'PASS' if passed else 'FAIL'} {command} n={n}: exit {code}, "
                  f"peak RSS {rss_mb:.1f} MB (bound {BOUND_MB[command]:.0f} MB), "
                  f"{seconds:.2f} s")
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
