"""The benchmark's workloads: CLI flags derived from the run seed.

Each workload drives the same CLI chain but loads the layers differently:

* iid-broadcast: one vectorized channel draw, so the time goes to the
  broadcast relay scan and to trace write and read.  Any change to the
  clustered samplers should leave it unchanged.
* nb-burst: the bundled PER-0.3 negative-binomial cluster anchor, whose
  per-cluster sampler is the largest layer of ``simulate``; its long
  clusters give the fits and quantiles their widest support.
* ge-beacon-batch: the Gilbert-Elliott chain in beacon mode (the relay
  never blocks) over several seeds fanned out with ``--jobs``, so many
  small traces and many interpreter start-ups.
"""

from __future__ import annotations

from dataclasses import dataclass

BAUD = 230000
CHIPS_PER_PACKET = 64
BEACON_INTERVAL_S = 0.1
NB_SPEC = "nb-cluster:r=0.1691,p=0.0638,target_per=0.3"
GE_SPEC = "gilbert-elliott:p_gb=0.02,p_bg=0.1,loss_good=0.01,loss_bad=0.5"
TARGETS = (0.9, 0.95, 0.99, 0.999)  # the CLI's default analyze targets


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    spec: str  # error-process spec, as process_from_spec parses it
    process_flags: tuple[str, ...]  # how a user passes that process to simulate
    n: int  # packets per seed
    n_seeds: int
    jobs: int

    @property
    def period_s(self) -> float:
        """Transmit period: back-to-back packets, or the CLI's default
        beacon interval."""
        return CHIPS_PER_PACKET / BAUD if self.mode == "broadcast" else BEACON_INTERVAL_S

    def seeds(self, seed: int) -> list[int]:
        return [seed * self.n_seeds + k for k in range(self.n_seeds)]

    def simulate_args(self, seed: int) -> list[str]:
        args = ["simulate", "--baud", str(BAUD), "--mode", self.mode,
                *self.process_flags, "--n", str(self.n)]
        for s in self.seeds(seed):
            args += ["--seed", str(s)]
        if self.jobs > 1:
            args += ["--jobs", str(self.jobs)]
        return args


WORKLOADS = {w.name: w for w in (
    Workload("iid-broadcast", "broadcast", "iid-packet:p=0.1", ("--per", "0.1"),
             n=250_000, n_seeds=1, jobs=1),
    Workload("nb-burst", "broadcast", NB_SPEC, ("--process", NB_SPEC),
             n=250_000, n_seeds=1, jobs=1),
    Workload("ge-beacon-batch", "beacon", GE_SPEC, ("--process", GE_SPEC),
             n=62_500, n_seeds=4, jobs=2),
)}
