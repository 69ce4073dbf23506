"""Cluster-size laws and the latency they give, on the standard library.

The model-law half of the pipeline: the three count-law families and
their domains, a law's CDF table from its pmf recurrence and its
quantiles, the PER-indexed model table, and the map from a quantile to
statistically-averaged latency (SAL).  ``sal`` and
``safety`` need nothing else, so they run on the standard library alone
(only a CDF table that grows past 2^16 entries loads numpy, for its
chunk fill); ``clusters`` re-exports every name here next to the trace
statistics and the fits.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from array import array
from enum import Enum
from functools import cached_property

from ._errors import ClusterStatsError
from ._record import Record
from ._tables import OutOfRange, data_path, read_table
from .node import LinkConfig

DEFAULT_TARGETS = (0.9, 0.95, 0.99, 0.999)
_RUN_CAP = 10**7  # largest run a CDF table holds: model quantiles and NB cluster draws
_LOG_MIN = math.log(sys.float_info.min)
_TABLE_CHUNK = 1 << 16  # most terms CdfTable steps at once


class Family(str, Enum):
    NEG_BINOMIAL = "negbinomial"
    POISSON = "poisson"
    BINOMIAL = "binomial"

    @property
    def n_params(self) -> int:
        return 1 if self is Family.POISSON else 2


def check_params(family: Family, params) -> None:
    """Raise ``ClusterStatsError`` unless ``params`` name a law of
    ``family``: NB r > 0 and p in (0, 1), Poisson lambda >= 0, binomial an
    integral n >= 1 and p in [0, 1], each parameter finite."""
    params = tuple(params)
    if len(params) != family.n_params:
        raise ClusterStatsError(f"{family.value} takes {family.n_params} parameter(s), "
                                f"got {len(params)}")
    if family is Family.NEG_BINOMIAL:
        r, p = params
        if not r > 0:
            raise ClusterStatsError(f"r must be > 0, got {r}")
        if not 0.0 < p < 1.0:
            raise ClusterStatsError(f"p must be in (0, 1), got {p}")
    elif family is Family.POISSON:
        if not params[0] >= 0:
            raise ClusterStatsError(f"lambda must be >= 0, got {params[0]}")
    else:
        n, p = params
        if not (n >= 1 and float(n).is_integer()):
            raise ClusterStatsError(f"n must be an integer >= 1, got {n}")
        if not 0.0 <= p <= 1.0:
            raise ClusterStatsError(f"p must be in [0, 1], got {p}")
    if not all(math.isfinite(x) for x in params):
        raise ClusterStatsError(f"{family.value} parameters must be finite, got {params}")


def _stirlerr(n: float) -> float:
    """Stirling's error, log(n!) - log(sqrt(2 pi n) (n/e)^n), for n > 0:
    by ``math.lgamma`` up to 15, by its asymptotic series above."""
    if n <= 15.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x, by its series where the two parts nearly cancel."""
    if not abs(x - m) < 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    # x * v first: 2x may overflow where x * v cannot, and inf * 0 is nan
    s, term, v2 = (x - m) * v, x * v * 2.0, v * v
    for j in itertools.count(3, 2):
        term *= v2
        s, last = s + term / j, s
        if s == last:
            return s


def _log_binom(x: float, y: float, p: float, q: float) -> float:
    """log of (x + y)! / (x! y!) p^x q^y for x, y > 0, by Loader's
    saddle-point form ("Fast and Accurate Computation of Binomial
    Probabilities", 2000; R's ``dbinom_raw``): a few ulps at any size,
    where ``math.lgamma``'s terms lose digits past 10^7."""
    n = x + y
    return (_stirlerr(n) - _stirlerr(x) - _stirlerr(y) - _bd0(x, n * p) - _bd0(y, n * q)
            - 0.5 * math.log(2 * math.pi * x * (y / n)))


class CdfTable:
    """CDF of a count law at 0, 1, ... from its pmf recurrence
    ``pmf(k) = pmf(k-1) * ratio(k)``, summed in order as a plain loop would.
    It grows in chunks, doubling up to ``_TABLE_CHUNK`` terms, as far as its
    readers ask, and is finished when a term no longer moves the float CDF
    or it reaches ``size`` entries.

    It holds the entries from ``start`` on, in an ``array('d')``, from
    ``pmf``, the pmf at ``start``; the ones before are 0 (``cdf_table``
    starts a law whose pmf(0) underflows where its pmf reaches the float
    range).

    ``ratio`` takes a float k, or an array of them: a chunk shorter than
    ``_TABLE_CHUNK`` is filled by ``itertools.accumulate`` over float k, a
    full one by numpy's in-order ``cumprod`` and ``cumsum`` over an array,
    and both give the loop's bits."""

    def __init__(self, pmf: float, ratio, size: int, start: int = 0):
        self.start, self._size, self._pmf, self._ratio = start, size, pmf, ratio
        self._cdf = array("d", [pmf])
        self.finished = start == size - 1

    def grow(self, upto: float = -math.inf, k: int = 0) -> array:
        """Extend the table until its last value is at least ``upto`` and it
        holds index ``k``, or it is finished; returns its entries from
        ``start`` on."""
        cdf = self._cdf
        while not self.finished and (cdf[-1] < upto or self.start + len(cdf) <= k):
            lo = self.start + len(cdf)
            hi = min(2 * lo, lo + _TABLE_CHUNK, self._size)
            # the terms lo..hi-1 join the table up to the first that no longer
            # moves the sum; pmf(k) / pmf(k-1) is ratio(k)
            if hi - lo < _TABLE_CHUNK:
                pmfs = list(itertools.accumulate(map(self._ratio, map(float, range(lo, hi))),
                                                 operator.mul, initial=self._pmf))
                self._pmf = pmfs[-1]
                sums = list(itertools.accumulate(pmfs[1:], operator.add, initial=cdf[-1]))
                same = list(map(operator.eq, sums[1:], sums))
                kept = same.index(True) if True in same else hi - lo
                cdf.extend(sums[1:kept + 1])
            else:
                import numpy as np  # only tables past _TABLE_CHUNK entries get here

                chunk = self._ratio(np.arange(lo, hi, dtype=np.float64))
                chunk[0] *= self._pmf
                np.cumprod(chunk, out=chunk)  # cumprod and cumsum go in order, as a loop
                self._pmf = float(chunk[-1])
                last = cdf[-1]
                chunk[0] += last
                np.cumsum(chunk, out=chunk)
                same = np.flatnonzero(chunk == np.concatenate(([last], chunk[:-1])))
                kept = int(same[0]) if same.size else hi - lo
                cdf.frombytes(chunk[:kept].tobytes())
            self.finished = kept < hi - lo or hi == self._size
        return cdf


def cdf_table(family: Family, params: tuple[float, ...]) -> CdfTable:
    """A law's CDF table from its pmf(0) and pmf(k) / pmf(k-1).

    When pmf(0) underflows (NB r=200, p=1e-3), the table starts at the
    first k whose log pmf reaches ``_LOG_MIN``, and the terms before count
    as 0.  The pmf rises up to the mode, so that k is found by bisection
    on [1, mode], clipped to the table's end; a law with no such k there
    (binomial n=10^12, p=0.5, whose mass lies past the run cap) starts at
    the end.  Either way the start's pmf is ``exp`` of its log pmf in
    Loader's form, so a binomial with p = 1 starts at n with pmf 1, or at
    the run cap with pmf 0 when n lies past it."""
    family = Family(family)
    check_params(family, params)
    size = _RUN_CAP + 1
    if family is Family.NEG_BINOMIAL:
        r, p = params
        pmf0, ratio = p ** r, lambda k: (1.0 - p) * (k - 1 + r) / k
        mode = max(0.0, (r - 1.0) * (1.0 - p) / p)  # -inf for r < 1 and a subnormal p

        def log_pmf(k):
            return math.log(r / (r + k)) + _log_binom(r, k, p, 1.0 - p)
    elif family is Family.POISSON:
        (lam,) = params
        pmf0, ratio, mode = math.exp(-lam), lambda k: lam / k, lam

        def log_pmf(k):
            return -_stirlerr(k) - _bd0(k, lam) - 0.5 * math.log(2 * math.pi * k)
    else:
        n, p = int(params[0]), params[1]
        q = 1.0 - p
        # where q rounds to 1, log(q) would be 0: log(1 - p) is -p to within p^2
        pmf0 = math.exp(-n * p) if q == 1.0 else math.exp(n * math.log(q)) if q else 0.0
        ratio, size = lambda k: (n - k + 1) * p / (k * q), min(n, _RUN_CAP) + 1
        mode = (n + 1) * p

        def log_pmf(k):  # with q = 0 all the mass is at n
            if k == n:
                return n * math.log(p)
            return _log_binom(k, float(n - k), p, q) if q else -math.inf
    if not pmf0 < sys.float_info.min:
        return CdfTable(pmf0, ratio, size)
    top = math.floor(min(mode, size - 1))
    start = 1 + bisect.bisect_left(range(1, top + 1), True, key=lambda k: log_pmf(k) >= _LOG_MIN)
    if start > top:
        start = size - 1
    return CdfTable(math.exp(log_pmf(start)), ratio, size, start=start)


class FitResult(Record):
    """A fitted (or table-supplied) cluster-law model."""

    family: Family
    params: tuple[float, ...]
    max_cdf_error: float = math.nan

    @cached_property
    def _table(self) -> CdfTable:
        return cdf_table(self.family, self.params)

    @property
    def mean(self) -> float:
        if self.family is Family.NEG_BINOMIAL:
            r, p = self.params
            return r * (1.0 - p) / p
        if self.family is Family.POISSON:
            return self.params[0]
        n, p = self.params
        return n * p

    def describe(self) -> str:
        """The law with each parameter's ``repr``, which reads back as the
        same float, so it can be entered as a model-table row."""
        x = [float(v) for v in self.params]
        if self.family is Family.NEG_BINOMIAL:
            return f"negbinomial(r={x[0]!r}, p={x[1]!r})"
        if self.family is Family.POISSON:
            return f"poisson(lambda={x[0]!r})"
        return f"binomial(n={int(x[0])}, p={x[1]!r})"


def quantile(model: FitResult, target_prob: float) -> int:
    """Smallest k with CDF(k) >= target_prob in the law's CDF table;
    ``ClusterDistribution.quantile`` is the empirical law's."""
    if not 0.0 < target_prob < 1.0:
        raise ClusterStatsError(f"target probability must be in (0, 1), got {target_prob}")
    table = model._table
    cdf = table.grow(target_prob)
    if not cdf[-1] >= target_prob:
        raise ClusterStatsError(f"quantile({target_prob}) of {model.describe()} is beyond "
                                f"{table.start + len(cdf) - 1}, where its CDF ends at "
                                f"{cdf[-1]!r}")
    return table.start + bisect.bisect_left(cdf, target_prob)


class LatencyParams(Record):
    """Timing constants for the cluster-to-latency map."""

    l0_s: float
    ipd_s: float
    pt_s: float

    def __post_init__(self):
        if not (self.l0_s >= 0 and self.ipd_s >= 0 and self.pt_s >= 0):
            raise ClusterStatsError("latency parameters must be >= 0")

    @classmethod
    def from_baud(cls, baud: int, ipd_s: float = 0.0) -> "LatencyParams":
        """Timing of a broadcast link with the default decode and turnaround
        times; raises ``ConfigError`` on bad input."""
        config = LinkConfig(baud=baud, ipd_s=ipd_s)
        return cls(l0_s=config.l0_s, ipd_s=ipd_s, pt_s=config.packet_time_s)


def latency_from_clusters(n_lost: int, params: LatencyParams) -> float:
    """Latency after a run of n_lost losses: l0 + n_lost * (ipd + pt)."""
    if n_lost < 0:
        raise ClusterStatsError(f"n_lost must be >= 0, got {n_lost}")
    return params.l0_s + n_lost * (params.ipd_s + params.pt_s)


def _check_row(per: float, family: Family, params) -> None:
    """A model-table row's rule: its family's domain, parameters > 0 for
    the log-space interpolation of ``model_at``, and a PER in (0, 1]."""
    check_params(family, params)
    if not all(x > 0 for x in params):
        raise ClusterStatsError(f"parameters must be > 0, got {list(params)}")
    if not 0 < per <= 1:  # NaN included
        raise ClusterStatsError(f"per must be in (0, 1], got {per}")


def _model_row(row: dict[str, str]) -> tuple[float, Family, list[float]]:
    family = Family(row["family"].strip())
    params = [float(row["param1"])]
    if row["param2"]:
        params.append(float(row["param2"]))
    per = float(row["per"])
    _check_row(per, family, params)  # here too, so an error names its line
    return per, family, params


class ModelTable(Record):
    """PER-indexed cluster-law models with log-PER parameter interpolation."""

    pers: tuple[float, ...]
    models: tuple[FitResult, ...]

    def __post_init__(self):
        object.__setattr__(self, "pers", tuple(float(per) for per in self.pers))
        if not self.pers:
            raise ClusterStatsError("model table needs at least one row")
        if len(self.pers) != len(self.models):
            raise ClusterStatsError(f"model table has {len(self.pers)} PERs for "
                                    f"{len(self.models)} models")
        for per, model in zip(self.pers, self.models):
            _check_row(per, model.family, model.params)
        if any(b <= a for a, b in zip(self.pers, self.pers[1:])):
            raise ClusterStatsError("model table PERs must be strictly increasing")

    @property
    def per_min(self) -> float:
        return self.pers[0]

    @property
    def per_max(self) -> float:
        return self.pers[-1]

    @classmethod
    def from_rows(cls, rows) -> "ModelTable":
        rows = sorted(rows, key=lambda r: r[0])
        return cls(pers=tuple(r[0] for r in rows),
                   models=tuple(FitResult(family=Family(r[1]), params=tuple(r[2]))
                                for r in rows))

    @classmethod
    def from_csv(cls, path) -> "ModelTable":
        return cls.from_rows(read_table(
            path, ("per", "family", "param1", "param2"), _model_row, ClusterStatsError))

    @classmethod
    def bundled(cls) -> "ModelTable":
        return cls.from_csv(data_path("cluster_models.csv"))

    def model_at(self, per: float) -> FitResult:
        """Model for a PER, interpolating parameters between bracketing rows.

        Same-family brackets interpolate each parameter geometrically in
        log(PER); across a family boundary the per-transmission mean is
        interpolated instead and a Poisson law carries it.  A PER in
        [0, ``per_min``) takes the lowest row's law, so no quantile steps
        down as the PER falls below the span.
        """
        idx = bisect.bisect_left(self.pers, per)
        # a row within 1e-9 relative on either side is that row: grid PERs
        # reconstructed with float round-off, the span's ends included
        for row in (idx - 1, idx):
            if 0 <= row < len(self.pers) and math.isclose(per, self.pers[row], rel_tol=1e-9):
                return self.models[row]
        if not 0.0 <= per <= self.per_max:  # NaN included
            raise OutOfRange("per", per, "model table", 0.0, self.per_max)
        if idx == 0:
            return self.models[0]
        lo, hi = self.models[idx - 1], self.models[idx]
        w = ((math.log(per) - math.log(self.pers[idx - 1]))
             / (math.log(self.pers[idx]) - math.log(self.pers[idx - 1])))

        def geo(a: float, b: float) -> float:
            return math.exp((1.0 - w) * math.log(a) + w * math.log(b))

        if lo.family is hi.family and lo.family is not Family.BINOMIAL:
            params = tuple(geo(a, b) for a, b in zip(lo.params, hi.params))
            return FitResult(family=lo.family, params=params)
        return FitResult(family=Family.POISSON, params=(geo(lo.mean, hi.mean),))


class SalPoint(Record):
    per: float
    target: float
    packets: int
    latency_s: float


def sal_curve(per_grid, targets, table: ModelTable,
              params: LatencyParams) -> list[SalPoint]:
    """Statistically-averaged latency over a PER x target-probability grid."""
    points = []
    for per in per_grid:
        model = table.model_at(float(per))
        for target in targets:
            n = quantile(model, float(target))
            points.append(SalPoint(per=float(per), target=float(target), packets=n,
                                   latency_s=latency_from_clusters(n, params)))
    return points
