"""Output checks, with the benchmark's own oracles, counted against attempts.

Nothing here calls the package to decide what is right: the relay rule,
the loss-run count and the empirical quantiles are recomputed by simple
loops, and the ``sal``/``safety`` files are compared with digests recorded
when the benchmark was written.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from itertools import groupby

import numpy as np

from workloads import CHIPS_PER_PACKET

# sha256 of the default `vlcrelay sal` and `vlcrelay safety` outputs
SAL_SHA256 = "026308c6bc938ea1cfec667578ce964b7a43da789cfc86f54ae6cac6dbddb845"
SAFETY_SHA256 = "4c7219b3ff3c3fa343bd41fd11e158227a1a262a277b5fbd297e60ecb4bbb7b6"

T_PROC_S = 10e-6
GUARD_S = 28.5e-6
MIN_LATENCY_US = 595.02  # 2 packet times + decode + turnaround at 230 kBd
LATENCY_TOL_S = 1e-12
LOSS_SIGMAS = 6.0
LOSS_BATCHES = 100


def min_latency_s(baud: int) -> float:
    """First bit sent to last relayed bit with no loss before the packet."""
    return 2 * CHIPS_PER_PACKET / baud + T_PROC_S + GUARD_S


class Tally:
    """Operations attempted and failed; failed_frac = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def command(self, done) -> bool:
        detail = f"exit {done.code}: {done.stderr.strip()[-300:]}"
        return self.check(" ".join(done.argv[1:4]) + " exits 0", done.code == 0, detail)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def relay_oracle(received, baud: int, period_s: float):
    """Per-packet loop of the relay rule: a received packet is relayed
    unless its air time overlaps the one relay it follows; a relay starts
    after reception plus decode and turnaround and lasts one packet time.
    Latency spans back over the run of losses just before the packet."""
    pt = CHIPS_PER_PACKET / baud
    l0 = min_latency_s(baud)
    relay_start = relay_end = -math.inf
    may_block = False
    run = 0
    n = len(received)
    relayed = np.zeros(n, dtype=bool)
    overlapped = np.zeros(n, dtype=bool)
    latency = np.full(n, np.nan)
    for j, ok in enumerate(received.tolist()):
        start = j * period_s
        end = start + pt
        if may_block and start < relay_end and end > relay_start:
            overlapped[j] = True
            may_block = False
        elif ok:
            relayed[j] = True
            latency[j] = l0 + run * period_s
            relay_start = end + T_PROC_S + GUARD_S
            relay_end = relay_start + pt
            may_block = True
        run = 0 if ok else run + 1
    return relayed, overlapped, latency


def loss_runs(received) -> Counter:
    """Run length -> number of maximal runs of consecutive losses."""
    return Counter(sum(1 for _ in group)
                   for ok, group in groupby(received.tolist()) if not ok)


def expected_report(received, targets) -> dict[str, tuple[int, int]]:
    """The analyze report fields the benchmark recomputes on its own, each
    as the range of values it accepts."""
    runs = loss_runs(received)
    windows = int(received.sum()) + (0 if received[0] else 1)
    zeros = windows - sum(runs.values())

    def smallest_k(p: float) -> int:
        # smallest k with (zeros + runs of length <= k) / windows >= p
        cum, k = zeros, 0
        while cum < p * windows:
            k += 1
            cum += runs.get(k, 0)
        return k

    counts = {
        "n_packets": len(received),
        "n_lost": sum(k * c for k, c in runs.items()),
        "n_runs": sum(runs.values()),
        "max_cluster": max(runs, default=0),
    }
    report = {key: (v, v) for key, v in counts.items()}
    for t in targets:
        # a cdf within rounding of the target may land on either side
        report[f"empirical_quantile_{t}"] = (smallest_k(t - 1e-9), smallest_k(t + 1e-9))
    return report


def parse_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def parse_summaries(text: str) -> dict[int, dict[str, str]]:
    """The simulate stdout: one key=value block per seed."""
    blocks = {}
    for block in text.strip().split("\n\n"):
        fields = parse_fields(block)
        if "seed" in fields:
            blocks[int(fields["seed"])] = fields
    return blocks


def parse_int(fields: dict[str, str], key: str):
    try:
        return int(fields[key])
    except (KeyError, ValueError):
        return None


def parse_float(fields: dict[str, str], key: str) -> float:
    try:
        return float(fields[key])
    except (KeyError, ValueError):
        return math.nan


def batch_stderr(lost: np.ndarray, batches: int = LOSS_BATCHES) -> float:
    """Standard error of the loss fraction from batch means, which holds
    for clustered losses as long as batches are long next to the bursts."""
    means = [b.mean() for b in np.array_split(lost.astype(float), batches)]
    return float(np.std(means, ddof=1) / math.sqrt(batches))


def check_seed(tally: Tally, seed: int, trace, summary: dict[str, str] | None,
               loss_rate: float, baud: int, period_s: float) -> None:
    """An in-process trace against the oracle, and the CLI summary
    for the same seed against both."""
    received = np.asarray(trace.received, dtype=bool)
    relayed, overlapped, latency = relay_oracle(received, baud, period_s)
    tag = f"seed {seed}"
    got_relayed = np.asarray(trace.relayed, dtype=bool)
    tally.check(f"{tag} relayed", np.array_equal(got_relayed, relayed),
                f"{int((got_relayed != relayed).sum())} packets differ")
    blocked = received & overlapped
    got_blocked = np.asarray(trace.blocked, dtype=bool)
    tally.check(f"{tag} blocked", np.array_equal(got_blocked, blocked),
                f"{int((got_blocked != blocked).sum())} packets differ")
    got_latency = np.asarray(trace.latency_s, dtype=float)
    lat_ok = (np.array_equal(np.isnan(got_latency), ~relayed)
              and bool(np.all(np.abs(got_latency[relayed] - latency[relayed])
                              <= LATENCY_TOL_S)))
    tally.check(f"{tag} latency_s", lat_ok)

    if not tally.check(f"{tag} summary present", summary is not None):
        return
    runs = loss_runs(received)
    expect = {"n_tx": received.size, "n_received": int(received.sum()),
              "n_relayed": int(relayed.sum()), "n_blocked": int(blocked.sum()),
              "max_cluster": max(runs, default=0)}
    for key, value in expect.items():
        got = parse_int(summary, key)
        tally.check(f"{tag} summary {key}", got == value, f"{got} != {value}")
    min_us = parse_float(summary, "min_latency_us")
    tally.check(f"{tag} min_latency_us", round(min_us, 2) == MIN_LATENCY_US, str(min_us))
    n_rel, n_blk, n_rx = (parse_int(summary, k) for k in ("n_relayed", "n_blocked", "n_received"))
    tally.check(f"{tag} n_relayed + n_blocked = n_received",
                None not in (n_rel, n_blk, n_rx) and n_rel + n_blk == n_rx)
    n_tx = parse_int(summary, "n_tx")
    if n_tx and n_rx is not None:
        channel = 1.0 - n_rx / n_tx
        tol = LOSS_SIGMAS * batch_stderr(~received) + 1e-12
        tally.check(f"{tag} channel loss", abs(channel - loss_rate) <= tol,
                    f"|{channel} - {loss_rate}| > {tol}")
    else:
        tally.check(f"{tag} channel loss", False, "no n_tx/n_received")


def check_reports(tally: Tally, reports: list[str], expected: list[dict]) -> None:
    """Each analyze report against the recomputed fields of one trace.

    Reports are matched to seeds by content, since trace file names are
    the CLI's business."""
    tally.check("one report per trace", len(reports) == len(expected),
                f"{len(reports)} reports for {len(expected)} traces")
    left = list(expected)
    for text in reports:
        if not left:
            tally.check("report matches a trace", False, "more reports than traces")
            continue
        fields = parse_fields(text)

        def ok(exp, key):
            got = parse_int(fields, key)
            return got is not None and exp[key][0] <= got <= exp[key][1]

        exp = max(left, key=lambda e: sum(ok(e, key) for key in e))
        left.remove(exp)
        for key in exp:
            tally.check(f"report {key}", ok(exp, key), f"{fields.get(key)} not in {exp[key]}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report_files(tally: Tally, sal_csv: bytes, safety_csv: bytes) -> None:
    tally.check("sal.csv digest", sha256(sal_csv) == SAL_SHA256, sha256(sal_csv))
    tally.check("safety.csv digest", sha256(safety_csv) == SAFETY_SHA256, sha256(safety_csv))
