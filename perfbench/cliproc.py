"""Drive the ``vlcrelay`` CLI in child interpreters, one command at a time.

Every command is a fresh ``python -m vlcrelay.cli`` process, as a user
would run it, started only after the previous one exited (a closed loop
with one client).  Each child is reaped with ``os.wait4`` so its own peak
RSS is read from its rusage, not the running maximum over all children.
A calibrating runner also times the host-speed probe of ``speed`` while
each child runs, so the child's wall time can be scaled to the reference
speed.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
from workloads import Workload


@dataclass(frozen=True)
class Done:
    argv: tuple[str, ...]
    code: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str
    speed: float = 1.0  # REF_PROBE_S over the median probe time during the child

    @property
    def ref_seconds(self) -> float:
        """Wall time scaled to the reference host speed."""
        return self.seconds * self.speed


class Runner:
    """Runs child interpreters against the checkout's ``src`` tree."""

    def __init__(self, root: Path, work: Path, calibrate: bool = False):
        self.work = work
        self.calibrate = calibrate
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def python(self, args, out_dir: Path | None = None) -> Done:
        env = self.env if out_dir is None else dict(self.env, VLCRELAY_OUT=str(out_dir))
        argv = (sys.executable, *args)
        # both streams go to files: the parent is busy probing, not reading
        with open(self.work / "stdout.txt", "w+b") as out, \
                open(self.work / "stderr.txt", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            try:
                probes = speed.probe_until_exit(proc.pid) if self.calibrate else []
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        factor = speed.REF_PROBE_S / statistics.median(probes) if probes else 1.0
        return Done(argv=argv, code=proc.returncode, seconds=seconds,
                    rss_mb=usage.ru_maxrss / 1024.0, stdout=stdout, stderr=stderr,
                    speed=factor)

    def cli(self, args, out_dir: Path) -> Done:
        return self.python(["-m", "vlcrelay.cli", *args], out_dir)


IMPORT_CLI = ["-c", "import vlcrelay.cli"]


def setup(runner: Runner) -> Done:
    """A fresh interpreter importing ``vlcrelay.cli``, as every command does."""
    return runner.python(IMPORT_CLI)


def import_times(runner: Runner, repeats: int) -> tuple[dict[str, float], list[Done]]:
    """Median ``-X importtime`` figures in seconds: self time per vlcrelay
    module, cumulative time for scipy.stats and for the whole import."""
    samples: dict[str, list[float]] = {}
    done = []
    for _ in range(repeats):
        d = runner.python(["-X", "importtime", *IMPORT_CLI])
        done.append(d)
        rows = {}
        for line in d.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                rows[name.strip()] = (int(self_us), int(cum_us))
        for name, (self_us, cum_us) in rows.items():
            if name == "vlcrelay" or name.startswith("vlcrelay."):
                samples.setdefault(name, []).append(self_us / 1e6)
        samples.setdefault("scipy.stats", []).append(rows.get("scipy.stats", (0, 0))[1] / 1e6)
        # the package import nests under vlcrelay.cli's, so the larger
        # cumulative figure is the whole import
        total = max(rows.get(name, (0, 0))[1] for name in ("vlcrelay", "vlcrelay.cli"))
        samples.setdefault("total", []).append(total / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}, done


@dataclass
class Rep:
    """One pass of simulate -> analyze (every trace) -> sal -> safety."""

    commands: list[Done] = field(default_factory=list)
    trace_bytes: int = 0
    n_traces: int = 0
    sal_csv: bytes = b""
    safety_csv: bytes = b""

    @property
    def simulate(self) -> Done:
        return self.commands[0]

    @property
    def analyses(self) -> list[Done]:
        return self.commands[1:-2]

    def timings(self, scaled: bool) -> dict[str, float]:
        """The chain's times in seconds, as measured or at the reference
        host speed.  The chain's time is the sum of its commands'."""
        def t(done):
            return done.ref_seconds if scaled else done.seconds
        parts = {"simulate_s": t(self.simulate),
                 "analyze_s": sum(t(d) for d in self.analyses),
                 "report_s": sum(t(d) for d in self.commands[-2:])}
        return {"pipeline_s": sum(parts.values()), **parts}


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError:
        return b""


def pipeline(runner: Runner, workload: Workload, seed: int, out: Path) -> Rep:
    """Run the chain once, with every output in a fresh ``VLCRELAY_OUT``.

    No output path is passed, so the traces land under the CLI's default
    name and format; they are found by listing the directory.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    rep = Rep()
    sim = runner.cli(workload.simulate_args(seed), out)
    traces = sorted(out.iterdir())
    rep.trace_bytes = sum(p.stat().st_size for p in traces)
    rep.n_traces = len(traces)
    analyses = [runner.cli(["analyze", str(p)], out) for p in traces]
    sal = runner.cli(["sal"], out)
    safety = runner.cli(["safety"], out)
    rep.commands = [sim, *analyses, sal, safety]
    rep.sal_csv = _read(out / "sal.csv")
    rep.safety_csv = _read(out / "safety.csv")
    shutil.rmtree(out, ignore_errors=True)
    return rep
