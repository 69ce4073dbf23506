"""Stochastic packet-loss processes and the measured PER-vs-distance table.

Optics, gain stages, and ambient-light rejection are deliberately out of
scope; the channel is whatever marks a packet lost.  Four interchangeable
processes cover the regimes of interest, from memoryless checks to the
bursty clustering seen on a real link, and an ingested table anchors PER
to measured distances per baud rate.

Only the ``nb-cluster`` process needs a count law, so ``laws`` is imported
where that law is checked or drawn: an iid or Gilbert-Elliott ``simulate``
does not load (and, with no bytecode cache, compile) it.  In the same way
numpy is imported by the packet draws alone, so ``process_from_spec``,
which checks a trace header's process, and the PER-vs-distance table run
on the standard library: neither ``analyze`` of a binary trace nor
``ingest-per-table`` loads numpy.  The draws fill a block of ``_BLOCK``
packets at a time; ``sim`` scans its runs over the same blocks.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING

from ._errors import ChannelError, ClusterStatsError
from ._record import Record
from ._tables import OutOfRange, data_path, read_table, table_text
from .node import FRAME_BITS

if TYPE_CHECKING:
    import numpy as np

    from .laws import CdfTable

BITS_PER_PACKET = FRAME_BITS  # a packet is one frame
PER_FLOOR = 1e-5
_NB_CYCLES = 4096  # (gap, cluster) cycles per batch of the nb-cluster draw
_BLOCK = 1 << 14  # packets per block of the draws and of sim's run scans


def _packet_blocks(n: int):
    """Slices of ``_BLOCK`` consecutive packets that cover ``n``."""
    for lo in range(0, n, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, n))


class UnknownBaud(ChannelError):
    def __init__(self, baud: int, known):
        super().__init__(f"baud {baud} not in table (known: {sorted(known)})")
        self.baud = baud


def _check_prob(name: str, value: float):
    if not 0.0 <= value <= 1.0:
        raise ChannelError(f"{name} must be in [0, 1], got {value}")


class IidPacket(Record):
    """Each packet lost independently with probability p_loss."""

    p_loss: float

    def __post_init__(self):
        _check_prob("p_loss", self.p_loss)

    @property
    def loss_rate(self) -> float:
        return self.p_loss


class IidBit(Record):
    """Independent bit flips; a packet is lost as soon as one bit flips."""

    p_bit: float

    def __post_init__(self):
        _check_prob("p_bit", self.p_bit)

    @property
    def loss_rate(self) -> float:
        return 1.0 - (1.0 - self.p_bit) ** BITS_PER_PACKET


class GilbertElliott(Record):
    """Two-state burst model: good/bad states with per-state loss rates."""

    p_gb: float
    p_bg: float
    loss_good: float
    loss_bad: float

    def __post_init__(self):
        for name in ("p_gb", "p_bg", "loss_good", "loss_bad"):
            _check_prob(name, getattr(self, name))

    @property
    def loss_rate(self) -> float:
        """Stationary loss rate from the balance equations."""
        denom = self.p_gb + self.p_bg
        if denom == 0.0:  # chain never leaves its start state (good)
            return self.loss_good
        pi_bad = self.p_gb / denom
        return (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad


class NbCluster(Record):
    """Loss runs drawn from an over-dispersed count law.

    Cluster sizes follow the negative binomial (r, p) conditioned on >= 1;
    success runs between clusters are geometric with per-packet start
    probability ``p_start``, which tunes the overall loss rate.
    """

    r: float
    p: float
    p_start: float

    def __post_init__(self):
        from .laws import _RUN_CAP

        _check_nb_law(self.r, self.p)
        # cluster sizes are capped at _RUN_CAP, so a law whose mean is
        # beyond it cannot be sampled
        if not self.mean_cluster <= _RUN_CAP:
            raise ChannelError(f"mean cluster size {self.mean_cluster:.3g} is beyond "
                               f"{_RUN_CAP} packets (r={self.r}, p={self.p})")
        if not 0.0 < self.p_start <= 1.0:
            raise ChannelError(f"p_start must be in (0, 1], got {self.p_start}")

    @property
    def mean_cluster(self) -> float:
        return _nb_mean_cluster(self.r, self.p)

    @property
    def loss_rate(self) -> float:
        return self.mean_cluster / (self.mean_cluster + 1.0 / self.p_start)

    @classmethod
    def for_law(cls, r: float, p: float) -> "NbCluster":
        """Pick p_start so the per-window run-length law (zeros included)
        is exactly the unconditional negative binomial (r, p)."""
        _check_nb_law(r, p)
        return cls(r=r, p=p, p_start=1.0 - p ** r)

    @classmethod
    def for_target_per(cls, r: float, p: float, target_per: float) -> "NbCluster":
        """Pick p_start so the long-run loss rate equals ``target_per``."""
        if not 0.0 < target_per < 1.0:
            raise ChannelError(f"target_per must be in (0, 1), got {target_per}")
        mean_cluster = _nb_mean_cluster(r, p)
        p_start = target_per / (mean_cluster * (1.0 - target_per))
        if p_start > 1.0:
            raise ChannelError(
                f"target_per {target_per} unreachable with clusters averaging "
                f"{mean_cluster:.3g} packets"
            )
        return cls(r=r, p=p, p_start=p_start)


def _check_nb_law(r: float, p: float) -> None:
    """The negative binomial's domain rule, ``laws.check_params``, raising
    ``ChannelError``."""
    from .laws import Family, check_params

    try:
        check_params(Family.NEG_BINOMIAL, (r, p))
    except ClusterStatsError as exc:
        raise ChannelError(str(exc)) from None


def _nb_mean_cluster(r: float, p: float) -> float:
    """Mean of the negative binomial (r, p) conditioned on >= 1; infinite
    when no mass is left above zero."""
    p0 = p ** r
    return r * (1.0 - p) / p / (1.0 - p0) if p0 < 1.0 else math.inf


ErrorProcess = IidPacket | IidBit | GilbertElliott | NbCluster


def _cluster_sizes(table: CdfTable, p0: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sizes (>= 1) of a law conditioned on >= 1, for uniforms
    ``u`` in [0, 1): a target above the finished table takes its last index,
    and a target of exactly 1.0 the cap."""
    import numpy as np

    from .laws import _RUN_CAP

    target = p0 + (1.0 - u) * (1.0 - p0)  # in (p0, 1], above the table's leading zeros
    cdf = np.frombuffer(table.grow(float(target.max())))
    sizes = table.start + np.minimum(np.searchsorted(cdf, target), cdf.size - 1)
    return np.where(target == 1.0, _RUN_CAP, np.maximum(sizes, 1))


def _ge_bad_before(u_trans: np.ndarray, p_gb: float, p_bg: float,
                   bad: bool) -> np.ndarray:
    """Gilbert-Elliott state (True = bad) before each packet of a block and
    after its last, from the state ``bad`` before its first packet and the
    block's transition draws.

    Each draw maps the state one of four ways: stay (no transition fires),
    force bad (only ``u < p_gb``), force good (only ``u < p_bg``) or swap
    (both).  So the state is the target of the last force, flipped once per
    swap since then.  A leading force to ``bad`` stands for the state the
    block starts in.
    """
    import numpy as np

    to_bad = np.concatenate(([bad], u_trans < p_gb))
    to_good = np.concatenate(([not bad], u_trans < p_bg))
    idx = np.arange(to_bad.size)
    last_force = np.maximum.accumulate(np.where(to_bad != to_good, idx, 0))
    swaps = np.logical_xor.accumulate(to_bad & to_good)  # parity so far
    return to_bad[last_force] ^ swaps ^ swaps[last_force]


def sample_losses(process: ErrorProcess, n: int, rng: np.random.Generator) -> np.ndarray:
    """Loss flags for ``n`` consecutive packets (True = lost).

    Deterministic in the generator state: the same seed gives the same
    flags for every process.  Each process fills one output buffer, the iid
    and Gilbert-Elliott ones a block of ``_BLOCK`` packets at a time (the
    numbers of one draw of all ``n``, in order) and ``nb-cluster`` a batch
    of ``_NB_CYCLES`` cycles at a time, so temporaries stay per block.
    """
    if n < 1:
        raise ChannelError(f"n must be >= 1, got {n}")
    if not isinstance(process, ErrorProcess):
        raise ChannelError(f"unknown error process {process!r}")
    import numpy as np

    lost = np.empty(n, dtype=bool)
    if isinstance(process, NbCluster):
        # stream 2: per batch, _NB_CYCLES geometric gaps (capped at n, so their
        # int64 sum cannot wrap), then _NB_CYCLES uniforms for the cluster sizes;
        # runs alternate gap, cluster, from a gap, and the one reaching n is cut
        from .laws import Family, cdf_table

        table = cdf_table(Family.NEG_BINOMIAL, (process.r, process.p))
        p0 = process.p ** process.r
        flags = np.tile([False, True], _NB_CYCLES)
        at = 0
        while at < n:
            gaps = np.minimum(rng.geometric(process.p_start, _NB_CYCLES), n)
            sizes = _cluster_sizes(table, p0, rng.random(_NB_CYCLES))
            ends = np.minimum(np.cumsum(np.stack((gaps, sizes), axis=1).ravel()), n - at)
            lost[at:at + ends[-1]] = np.repeat(flags, np.diff(ends, prepend=0))
            at += int(ends[-1])
        return lost
    bad = False  # the Gilbert-Elliott chain starts good
    for block in _packet_blocks(n):
        out = lost[block]
        if isinstance(process, IidPacket):
            np.less(rng.random(out.size), process.p_loss, out=out)
        elif isinstance(process, IidBit):
            flips = rng.binomial(BITS_PER_PACKET, process.p_bit, size=out.size)
            np.greater(flips, 0, out=out)
        else:
            # per packet: one loss draw in the current state, then one
            # transition draw, interleaved in the stream; the block's last
            # transition draw gives the state the next block starts in
            u = rng.random(2 * out.size)
            states = _ge_bad_before(u[1::2], process.p_gb, process.p_bg, bad)
            np.less(u[0::2], np.where(states[:-1], process.loss_bad, process.loss_good),
                    out=out)
            bad = bool(states[-1])
    return lost


RNG_ALGORITHM = "numpy-pcg64"
# each spec name's process class, spec keys (one per field, in print order)
# and random-stream version, bumped when sample_losses draws differently
_SPECS = {
    "iid-packet": (IidPacket, ("p",), 1),
    "iid-bit": (IidBit, ("p",), 1),
    "gilbert-elliott": (GilbertElliott, ("p_gb", "p_bg", "loss_good", "loss_bad"), 1),
    "nb-cluster": (NbCluster, ("r", "p", "p_start"), 2),  # 2: sizes drawn in blocks
}


def stream_label(process_spec: str) -> str:
    """The trace header's ``rng=`` label for the stream of a process spec."""
    _, _, version = _SPECS.get(process_spec.partition(":")[0], (None, (), 1))
    return f"{RNG_ALGORITHM}/{version}" if version > 1 else RNG_ALGORITHM


def process_from_spec(spec: str) -> ErrorProcess:
    """Parse 'name:param=value,...' descriptors, e.g. 'iid-packet:p=0.1'.

    Every parameter must be numeric, given once and used by the named
    process; ``nb-cluster`` takes ``target_per`` in place of ``p_start``.
    """
    name, _, rest = spec.partition(":")
    if name not in _SPECS:
        raise ChannelError(f"unknown process {name!r}")
    make, keys, _ = _SPECS[name]
    params: dict[str, float] = {}
    for item in rest.split(",") if rest else ():
        key, _, value = item.partition("=")
        key = key.strip()
        if not value:
            raise ChannelError(f"malformed process parameter {item!r}")
        if key in params:
            raise ChannelError(f"process parameter {key!r} given twice")
        try:
            params[key] = float(value)
        except ValueError:
            raise ChannelError(f"process parameter {key!r} is not a "
                               f"number: {value!r}") from None
    if make is NbCluster and "target_per" in params:
        make, keys = NbCluster.for_target_per, ("r", "p", "target_per")
    missing = [key for key in keys if key not in params]
    if missing:
        raise ChannelError(f"process {name!r} missing parameter {missing[0]!r}")
    if len(params) > len(keys):
        raise ChannelError(f"process {name!r} has no parameter(s) "
                           f"{sorted(set(params) - set(keys))}")
    return make(*(params[key] for key in keys))


def process_to_spec(process: ErrorProcess) -> str:
    for name, (cls, keys, _) in _SPECS.items():
        if type(process) is cls:
            values = (getattr(process, field) for field in cls._fields)
            return f"{name}:" + ",".join(f"{k}={v!r}" for k, v in zip(keys, values))
    raise ChannelError(f"unknown error process {process!r}")


def _check_baud(baud: float) -> int:
    """A PER-table baud as an int: it must be a finite, positive, integral
    number, such as 2.3e5."""
    if not (baud > 0 and float(baud).is_integer()):
        raise ChannelError(f"baud must be a positive integer, got {baud!r}")
    return int(baud)


class PerDistanceTable(Record):
    """Measured (distance, baud) -> PER anchors, in (baud, distance) order."""

    distances_m: tuple[float, ...]
    bauds: tuple[int, ...]
    pers: tuple[float, ...]

    def __post_init__(self):
        d, p = tuple(map(float, self.distances_m)), tuple(map(float, self.pers))
        if not d or len(d) != len(self.bauds) or len(d) != len(p):
            raise ChannelError("table needs at least one row, each with a distance, baud and per")
        # each check is written so that NaN fails it
        if not all(0 < x < math.inf for x in d):
            raise ChannelError("distances must be finite and positive")
        if not all(0 <= x <= 1 for x in p):
            raise ChannelError("per values must be in [0, 1]")
        rows = sorted(zip(map(_check_baud, self.bauds), d, p))
        if len({row[:2] for row in rows}) != len(rows):
            raise ChannelError("(distance, baud) pairs must be unique")
        self.__dict__.update(zip(("bauds", "distances_m", "pers"), zip(*rows)))

    @classmethod
    def from_rows(cls, rows) -> "PerDistanceTable":
        d, b, p = tuple(zip(*rows)) or ((), (), ())
        return cls(distances_m=d, bauds=b, pers=p)

    @classmethod
    def from_csv(cls, path) -> "PerDistanceTable":
        return cls.from_rows(read_table(
            path, ("distance_m", "baud", "per"),
            lambda row: (float(row["distance_m"]), _check_baud(float(row["baud"])),
                         float(row["per"])),
            ChannelError))

    def to_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(table_text(("distance_m", "baud", "per"),
                                zip(self.distances_m, self.bauds, self.pers)))

    @classmethod
    def bundled(cls) -> "PerDistanceTable":
        return cls.from_csv(data_path("per_distance.csv"))

    @classmethod
    def bundled_tilted(cls) -> "PerDistanceTable":
        """Anchors for the lamp reclined a few degrees toward long range."""
        return cls.from_csv(data_path("per_distance_tilted.csv"))


def per_at(table: PerDistanceTable, distance_m: float, baud: int) -> float:
    """PER at a distance, log-linear in PER between bracketing anchors by
    ``numpy.interp``'s formula, ``slope * (x - d[j]) + y[j]``.

    Interpolated values are floored at PER_FLOOR, the smallest rate the
    underlying measurements could resolve.
    """
    lo = bisect.bisect_left(table.bauds, baud)
    hi = bisect.bisect_right(table.bauds, baud, lo)
    if lo == hi:
        raise UnknownBaud(baud, set(table.bauds))
    d = table.distances_m[lo:hi]
    if not d[0] <= distance_m <= d[-1]:
        raise OutOfRange("distance", distance_m, "table", d[0], d[-1], unit="m")
    j = bisect.bisect_right(d, distance_m) - 1
    y = [math.log10(max(p, PER_FLOOR)) for p in table.pers[lo + j:lo + j + 2]]
    slope = (y[1] - y[0]) / (d[j + 1] - d[j]) if d[j] < distance_m else 0.0
    return max(10.0 ** (slope * (distance_m - d[j]) + y[0]), PER_FLOOR)
