"""Self-tests of the benchmark's output checks: each fault must be counted.

Run from the root of a checkout; exits 0 when every case passes:

    python3 perfbench/selftest.py

A small real pipeline is checked clean first, then a flipped ``relayed``
bit, a wrong analyze report field and non-zero exits (a missing trace, and
an analyze on too few losses, which exits 4) must each raise the failed
count, and so ``failed / attempted``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import cliproc  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = dataclasses.replace(WORKLOADS["iid-broadcast"], n=2000)
THIN = dataclasses.replace(SMALL, spec="iid-packet:p=0.0005", process_flags=("--per", "0.0005"))
SEED = 3


def tally_of(workload, reps, traces) -> checks.Tally:
    tally = checks.Tally()
    run.check_outputs(tally, workload, reps, traces)
    return tally


def main() -> int:
    work = ROOT / run.WORK_DIR / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    results = []

    def case(name: str, ok: bool, tally: checks.Tally):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}: failed {tally.failed}/{tally.attempted}"
              f" = {tally.failed_frac:.4f}")

    try:
        runner = cliproc.Runner(ROOT, work)
        rep = cliproc.pipeline(runner, SMALL, SEED, work / "out")
        traces = run.in_process_traces(SMALL, SEED)
        clean = tally_of(SMALL, [rep], traces)
        case("clean run has no failures", clean.failed == 0, clean)
        for failure in clean.failures:
            print("  ", failure)

        (s, trace), = traces.items()
        relayed = trace.relayed.copy()
        j = int(np.flatnonzero(relayed)[0])
        relayed[j] = False
        flipped = {s: dataclasses.replace(trace, relayed=relayed)}
        tally = tally_of(SMALL, [rep], flipped)
        case("flipped relayed bit is counted", tally.failed > 0, tally)

        report = rep.analyses[0]
        fields = checks.parse_fields(report.stdout)
        wrong = report.stdout.replace(f"n_runs={fields['n_runs']}\n",
                                      f"n_runs={int(fields['n_runs']) + 1}\n")
        bad_rep = dataclasses.replace(
            rep, commands=[rep.simulate, dataclasses.replace(report, stdout=wrong),
                           *rep.commands[2:]])
        tally = tally_of(SMALL, [bad_rep], traces)
        case("wrong report field is counted", tally.failed == 1, tally)

        missing = runner.cli(["analyze", str(work / "missing.csv")], work)
        tally = checks.Tally()
        tally.command(missing)
        case("non-zero exit is counted", missing.code != 0 and tally.failed == 1, tally)

        thin = cliproc.pipeline(runner, THIN, SEED, work / "out")
        tally = tally_of(THIN, [thin], run.in_process_traces(THIN, SEED))
        case("analyze exit 4 is counted",
             thin.analyses[0].code == 4 and tally.failed >= 1, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
