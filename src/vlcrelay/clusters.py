"""Loss-cluster statistics, discrete model fits, and latency prediction.

Consecutive channel losses cluster, and the cluster-size law is what turns
a packet error rate into a latency bound: a relayed packet that follows a
run of n losses lands exactly n transmit periods later than the minimum.
The pipeline here extracts the per-transmission run-length law (zeros
included), fits negative-binomial / Poisson / binomial candidates by
maximum likelihood, picks the best by worst-case CDF error, and maps
quantiles of the winner to statistically-averaged latency (SAL) figures.
The law is held as the run lengths seen and their counts, so its cost
follows the number of distinct lengths, not the longest run.

The model-law half (the families, a law's CDF table and quantile, the
model table and the latency map) is ``laws``; its names are re-exported
here.  This module imports no numpy and reads no payload bytes: the run
histogram is formed from a trace's stored form, whose ``loss_runs`` and
``opens_lost`` (``_trace.BinaryTrace``) give the runs and the windows,
and the negative-binomial fit sums the log pmf
of ``laws`` (``math.lgamma``) by ``math.fsum`` and maximises it by a
scalar port of scipy's bounded Brent search; the fits are scored on
``array`` CDFs.  So ``analyze`` of a binary trace runs on the standard
library alone, but for a law whose CDF table ``laws`` grows past one
chunk of 2^16 entries.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from array import array
from functools import cached_property

from ._record import Record
from ._tables import OutOfRange  # noqa: F401  (re-exported)
from ._trace import BinaryTrace
from .laws import (  # noqa: F401  (re-exported)
    DEFAULT_TARGETS,
    CdfTable,
    ClusterStatsError,
    Family,
    FitResult,
    LatencyParams,
    ModelTable,
    SalPoint,
    cdf_table,
    check_params,
    latency_from_clusters,
    quantile,
    sal_curve,
)

MIN_LOSSES = 10  # below this the run-length sample has no inferential value
_TIE_TOL = 1e-4  # CDF-error margin within which select_best calls fits tied


class FitDiverged(ClusterStatsError):
    pass


class ClusterDistribution(Record):
    """Empirical run-length law over per-transmission observation windows.

    ``counts[i]`` counts the windows whose loss run is ``lengths[i]``:
    every received packet (plus a virtual window when the trace opens with
    a loss) is one window.  ``lengths`` are the run lengths seen,
    ascending, 0 first even at count 0; both are ``array('q')``s.
    """

    lengths: array
    counts: array
    n_packets: int

    def __post_init__(self):
        try:
            lengths, counts = array("q", self.lengths), array("q", self.counts)
        except (TypeError, OverflowError):  # floats, nested lists, ...
            lengths = counts = array("q")
        if not (len(lengths) == len(counts) > 0 == lengths[0] <= counts[0]
                and all(map(operator.lt, lengths, lengths[1:]))
                and min(counts[1:], default=counts[0]) > 0):
            raise ClusterStatsError("hist must be ascending run lengths from 0 and their counts, "
                                    f"> 0 but at 0, got {self.lengths!r}, {self.counts!r}")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "counts", counts)

    @cached_property
    def n_opportunities(self) -> int:
        return sum(self.counts)

    @property
    def n_runs(self) -> int:
        return self.n_opportunities - self.counts[0]

    @cached_property
    def n_lost(self) -> int:
        return sum(map(operator.mul, self.lengths, self.counts))

    @property
    def max_cluster(self) -> int:
        return self.lengths[-1]

    @property
    def insufficient(self) -> bool:
        return self.n_lost < MIN_LOSSES

    @property
    def mean(self) -> float:
        return self.n_lost / self.n_opportunities

    def pmf(self) -> list[float]:
        """Share of the windows at each of ``lengths``."""
        n = self.n_opportunities
        return [count / n for count in self.counts]

    @cached_property
    def cdf(self) -> array:
        """Empirical CDF at ``lengths``, summed in order, and flat up to the
        next length; its last entry is 1 up to round-off."""
        return array("d", itertools.accumulate(self.pmf()))

    def quantile(self, target: float) -> int:
        """Smallest run length whose CDF reaches ``target``, else the longest."""
        if not 0.0 < target < 1.0:
            raise ClusterStatsError(f"target probability must be in (0, 1), got {target}")
        return self.lengths[min(bisect.bisect_left(self.cdf, target), len(self.lengths) - 1)]


def extract_clusters(trace) -> ClusterDistribution:
    """Count maximal loss runs in a trace (blocked packets are not losses).

    ``trace`` is a stored trace, as ``_trace.read_binary`` checked it, or
    a ``PacketTrace``, through ``trace.stored``: its ``loss_runs``.  Each
    reception is a window, as is a lost first packet; those that end no run
    are the zeros.  Fewer than ``MIN_LOSSES`` losses are ``insufficient``.
    """
    stored = trace if isinstance(trace, BinaryTrace) else trace.stored
    runs = stored.loss_runs
    lengths = sorted(runs)
    windows = stored.n_packets - sum(k * runs[k] for k in lengths) + stored.opens_lost
    return ClusterDistribution([0, *lengths],
                               [windows - sum(runs.values()), *map(runs.__getitem__, lengths)],
                               n_packets=stored.n_packets)


def _sign(x: float) -> float:
    """``np.sign``: -1.0, 0.0 or 1.0, and NaN for NaN."""
    return x if x != x else float((x > 0) - (x < 0))


def _maximum(a: float, b: float) -> float:
    """``np.maximum``: the larger, and NaN if either is NaN."""
    return a if a >= b or a != a else b


_BRENT_MESSAGES = {0: "Solution found.",
                   1: "Maximum number of function calls reached.",
                   2: "NaN result encountered."}


def _minimize_bounded(func, lo: float, hi: float, xatol: float,
                      maxiter: int = 500) -> tuple[float, float, int, int]:
    """Minimise ``func`` on the finite interval [lo, hi] by Brent's bounded
    scalar search (Brent 1973; the Forsythe-Malcolm-Moler ``fmin``).

    An operation-for-operation port of scipy's ``minimize_scalar`` with
    ``method="bounded"`` (``_minimize_scalar_bounded``, scipy 1.17), so
    ``func`` sees the same iterates and the result has the same bits,
    without importing scipy's optimizers, which cost every ``analyze``
    about a quarter second.  Returns ``(x, fun, nfev, flag)``: flag 0 is
    convergence, 1 the ``maxiter`` evaluation limit and 2 a NaN in the
    result, and ``_BRENT_MESSAGES[flag]`` is scipy's message for it.
    """
    # _sign and _maximum, not math.copysign or max: they carry a NaN
    # through to the flag-2 check, as scipy's np.sign and np.maximum do
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    flag = 0
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if ((abs(p) < abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = _sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        si = _sign(rat) + (rat == 0)
        x = xf + si * _maximum(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            flag = 1
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        flag = 2
    return xf, fx, num, flag


def _nb_log_pmf_terms(params, k: int) -> tuple[float, ...]:
    """The terms whose sum is a negative-binomial log pmf(k), by
    ``math.lgamma``: the fit's likelihood.  Loader's form, which starts the
    CDF tables, would move the fitted r by up to 3e-7 and slow the fit."""
    r, p = params
    return (math.lgamma(k + r), -math.lgamma(r), -math.lgamma(k + 1.0),
            r * math.log(p), k * math.log1p(-p))


def _fit_nb_mle(dist: ClusterDistribution) -> tuple[float, float]:
    mean = dist.mean
    if mean <= 0:
        raise FitDiverged("negative-binomial fit needs a positive mean")
    hist = list(zip(dist.lengths, dist.counts))

    def nll(logr: float) -> float:
        r = math.exp(logr)
        params = (r, r / (r + mean))
        # every run length's weighted terms, summed correctly rounded: the
        # same bits on every host, which no BLAS dot product promises
        return -math.fsum(w * term for k, w in hist
                          for term in _nb_log_pmf_terms(params, k))

    logr, fun, _, flag = _minimize_bounded(nll, math.log(1e-8), math.log(1e8),
                                           xatol=1e-12)
    if flag or not math.isfinite(fun):
        raise FitDiverged(f"profile likelihood failed: {_BRENT_MESSAGES[flag]}")
    r = math.exp(logr)
    return r, r / (r + mean)


def fit(dist: ClusterDistribution, family: Family) -> FitResult:
    """Maximum-likelihood fit of one family to the per-transmission law,
    thin sample or not: callers read ``dist.insufficient``."""
    family = Family(family)
    mean = dist.mean

    if family is Family.POISSON:
        params: tuple[float, ...] = (mean,)
    elif family is Family.NEG_BINOMIAL:
        params = _fit_nb_mle(dist)
    else:
        n = max(1, dist.max_cluster)
        params = (float(n), mean / n)

    # the law's CDF on 0..max_cluster from the table its quantiles read: 0
    # before the table's start, then its entries, then its last value past
    # its end, where it finished or reached the run cap.  It does not fall,
    # and the empirical CDF is flat from a seen length to just before the
    # next, so the largest gap on 0..max_cluster is at one end of a stretch
    table = cdf_table(family, params)
    start, held = table.start, table.grow(k=dist.max_cluster)
    ends = [k - 1 for k in dist.lengths[1:]] + [dist.max_cluster]
    err = max(abs(c - (held[min(k - start, len(held) - 1)] if k >= start else 0.0))
              for k, c in zip([*dist.lengths, *ends], [*dist.cdf, *dist.cdf]))
    result = FitResult(family=family, params=params, max_cdf_error=err)
    object.__setattr__(result, "_table", table)  # the cached_property's value
    return result


def select_best(fits) -> FitResult:
    """Smallest worst-case CDF error wins; near-ties (within ``_TIE_TOL``)
    go to fewer parameters."""
    fits = list(fits)
    if not fits:
        raise ClusterStatsError("select_best needs at least one fit")
    best_err = min(f.max_cdf_error for f in fits)
    contenders = [f for f in fits if f.max_cdf_error <= best_err + _TIE_TOL]
    return min(contenders, key=lambda f: (f.family.n_params, f.max_cdf_error))

