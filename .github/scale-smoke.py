"""Scale smoke test: ``simulate`` and ``analyze`` on 10^7 iid packets and
on 10^7 Gilbert-Elliott packets, ``simulate`` on 10^7 nb-cluster packets
(the PER-0.3 anchor), a CSV-export round trip (``simulate --out t.csv``,
then ``analyze t.csv``) on a tenth as many, ``simulate`` and ``analyze``
of an all-lost trace (``--per 1.0``) of 10^7 packets, one loss run whose
fits read each law's CDF table out to it, ``sal`` on a model table whose one
law, binomial(n=10^12), must end at the run cap with exit 2, and the
bundled ``sal`` and ``safety``.  The last three, and ``analyze`` of a
binary trace, have a bound below the peak of an interpreter that imports
numpy: they run on the standard library alone.  Each binary trace's size
is printed in bytes per packet, and its payload stream, the file after
its header, is checked against a bound per packet.

Each command runs in a fresh ``python -W error -m vlcrelay.cli`` child
against this checkout's ``src`` tree; the child is reaped with
``os.wait4`` and its own peak RSS is checked against a bound.  Exits 1
when a command ends with another exit code than expected, peaks above
its bound or writes a trace above its bound:

    python3 .github/scale-smoke.py [--n 10000000]
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# measured at 10^7 (2 CPUs, Python 3.11, numpy 2.4): simulate 47 MB for all
# three processes and all-lost (nb-cluster 47.3 MB), as it writes and sums up
# the packed draw alone (57-58 MB when it built the per-packet relay flags and
# scanned them); the CSV simulate at 10^6 peaks at 43 MB.  Analyze of a
# binary trace 18-19.3 MB for both, as it loads no numpy and counts the runs
# from the packed payload a block at a time (51 MB when it unpacked the flags
# with numpy); each bound is that plus about a quarter.  The CSV analyze at
# 10^6 peaks at 50 MB
SIMULATE_MB, ANALYZE_MB, ANALYZE_GE_MB, ANALYZE_CSV_MB = 60.0, 24.0, 24.0, 100.0
# the all-lost analyze at 10^7 peaks at 38 MB, as the run-length law holds
# only the lengths seen (324 MB when it held every length up to the longest
# run, and wrote a clusters.csv row for each); its bound is that plus about
# a quarter
ANALYZE_ALL_LOST_MB = 48.0
# the binomial(10^12) table starts at the 10^7 run cap at once, as no pmf below
# it is in the float range, so it too runs without numpy; its address space is
# limited, so a table past the cap fails fast, not the machine
SAL_CAP_ADDRESS_SPACE_MB = 1500.0
# the bundled sal and safety and the binomial(10^12) sal peak at 16 MB, a bare
# interpreter at 14 MB and one that imports numpy at 27 MB
NO_NUMPY_MB = 22.0
# the payload stream of each 10^7 binary trace, in bytes per packet (the
# header adds about 230 bytes): iid at PER 0.01 0.0149, Gilbert-Elliott
# 0.0496, nb-cluster 0.0620 and all-lost 0.00012 (each 0.125 when the
# packed bits were stored raw); each bound is that plus about a quarter
TRACE_B_PER_PACKET = {"trace.vlct": 0.019, "ge.vlct": 0.062, "nb.vlct": 0.078,
                      "lost.vlct": 0.00015}
GE_SPEC = "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5"
NB_SPEC = "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"


def run_cli(args: list[str], cwd: str,
            address_space_mb: float | None = None) -> tuple[int, float, float]:
    """Exit code, peak RSS in MB and wall seconds of one CLI command, its
    address space limited to ``address_space_mb`` if that is given."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def limit():
        if address_space_mb is not None:
            size = int(address_space_mb * 2**20)
            resource.setrlimit(resource.RLIMIT_AS, (size, size))

    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-W", "error", "-m", "vlcrelay.cli", *args],
                            cwd=cwd, env=env, stdout=subprocess.DEVNULL, preexec_fn=limit)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10**7, help="packets to simulate")
    n = parser.parse_args().n
    n_csv = n // 10
    ok = True
    with tempfile.TemporaryDirectory() as work:
        Path(work, "far.csv").write_text("per,family,param1,param2\n0.1,binomial,1e12,0.5\n")
        for label, bound_mb, expect, command, args in (
            (f"iid n={n}", SIMULATE_MB, 0, "simulate",
             ["--mode", "broadcast", "--per", "0.01", "--n", str(n), "--seed", "1",
              "--out", "trace.vlct", "--summary", "summary.txt"]),
            (f"iid n={n}", ANALYZE_MB, 0, "analyze",
             ["trace.vlct", "--clusters-out", "clusters.csv",
              "--report-out", "report.txt"]),
            (f"gilbert-elliott n={n}", SIMULATE_MB, 0, "simulate",
             ["--mode", "beacon", "--process", GE_SPEC, "--n", str(n), "--seed", "1",
              "--out", "ge.vlct", "--summary", "ge.txt"]),
            (f"gilbert-elliott n={n}", ANALYZE_GE_MB, 0, "analyze",
             ["ge.vlct", "--clusters-out", "ge-clusters.csv", "--report-out", "ge-report.txt"]),
            (f"nb-cluster n={n}", SIMULATE_MB, 0, "simulate",
             ["--mode", "broadcast", "--process", NB_SPEC, "--n", str(n), "--seed", "1",
              "--out", "nb.vlct", "--summary", "nb.txt"]),
            (f"iid csv n={n_csv}", SIMULATE_MB, 0, "simulate",
             ["--mode", "broadcast", "--per", "0.1", "--n", str(n_csv), "--seed", "3",
              "--out", "t.csv", "--summary", "t.txt"]),
            (f"iid csv n={n_csv}", ANALYZE_CSV_MB, 0, "analyze",
             ["t.csv", "--clusters-out", "t-clusters.csv", "--report-out", "t-report.txt"]),
            (f"all-lost n={n}", SIMULATE_MB, 0, "simulate",
             ["--per", "1.0", "--n", str(n), "--seed", "1",
              "--out", "lost.vlct", "--summary", "lost.txt"]),
            (f"all-lost n={n}", ANALYZE_ALL_LOST_MB, 0, "analyze",
             ["lost.vlct", "--clusters-out", "lost-clusters.csv",
              "--report-out", "lost-report.txt"]),
            ("binomial n=1e12 model table", NO_NUMPY_MB, 2, "sal",
             ["--models", "far.csv", "--out", "far-sal.csv"]),
            ("bundled model table", NO_NUMPY_MB, 0, "sal", ["--out", "sal.csv"]),
            ("bundled scenarios", NO_NUMPY_MB, 0, "safety", ["--out", "safety.csv"]),
        ):
            code, rss_mb, seconds = run_cli(
                [command, *args], work,
                SAL_CAP_ADDRESS_SPACE_MB if "far.csv" in args else None)
            passed = code == expect and rss_mb <= bound_mb
            size = ""
            name = args[args.index("--out") + 1] if "--out" in args else None
            if name in TRACE_B_PER_PACKET and code == 0:
                data = Path(work, name).read_bytes()
                stream = (len(data) - data.index(b"\n\n") - 2) / n
                passed = passed and stream <= TRACE_B_PER_PACKET[name]
                size = (f", trace {len(data) / n:.5f} B/packet (payload stream {stream:.5f}, "
                        f"bound {TRACE_B_PER_PACKET[name]})")
            print(f"{'PASS' if passed else 'FAIL'} {command} {label}: exit {code} "
                  f"(expected {expect}), "
                  f"peak RSS {rss_mb:.1f} MB (bound {bound_mb:.0f} MB), {seconds:.2f} s{size}")
            ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
