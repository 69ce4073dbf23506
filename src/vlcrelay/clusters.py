"""Loss-cluster statistics, discrete model fits, and latency prediction.

Consecutive channel losses cluster, and the cluster-size law is what turns
a packet error rate into a latency bound: a relayed packet that follows a
run of n losses lands exactly n transmit periods later than the minimum.
The pipeline here extracts the per-transmission run-length law (zeros
included), fits negative-binomial / Poisson / binomial candidates by
maximum likelihood, picks the best by worst-case CDF error, and maps
quantiles of the winner to statistically-averaged latency (SAL) figures.

The model-law half (the families, a law's CDF table and quantile, the
model table and the latency map) is ``laws``; its names are re-exported
here.  This module imports no numpy: the run histogram is counted from a
trace's stored form, its packed payload (``_trace.BinaryTrace``), a block
at a time as Python ints, and the fits are scalar ports of scipy's
``gammaln`` and bounded Brent search, scored on ``array`` CDFs.  So
``analyze`` of a binary trace runs on the standard library alone, but for
a law whose CDF table ``laws`` grows past one chunk of 2^16 entries.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

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
_RUN_BLOCK = 1 << 16  # packets per block of the run count: 2^13 payload bytes
_LADDER = 16  # runs shorter than this are counted by popcounts, longer ones one by one


class FitDiverged(ClusterStatsError):
    pass


@dataclass(frozen=True)
class ClusterDistribution:
    """Empirical run-length law over per-transmission observation windows.

    ``hist[k]`` counts the windows whose loss run is ``k``, zeros included:
    every received packet (plus a virtual window when the trace opens with
    a loss) is one window.  The last entry is the longest run's.  It is
    held as an ``array('q')``, and the law's CDF as an ``array('d')``.
    """

    hist: array
    n_slots: int

    def __post_init__(self):
        try:
            hist = array("q", self.hist)
        except (TypeError, OverflowError):  # floats, nested lists, ...
            hist = array("q")
        if not (hist and min(hist) >= 0 and hist[-1] > 0):
            raise ClusterStatsError("hist must be a 1-D sequence of integer counts >= 0 with "
                                    f"a non-zero last entry, got {self.hist!r}")
        object.__setattr__(self, "hist", hist)

    @cached_property
    def n_opportunities(self) -> int:
        return sum(self.hist)

    @property
    def n_zero(self) -> int:
        return self.hist[0]

    @property
    def n_runs(self) -> int:
        return self.n_opportunities - self.n_zero

    @cached_property
    def n_lost(self) -> int:
        return sum(map(operator.mul, range(len(self.hist)), self.hist))

    @property
    def max_cluster(self) -> int:
        return len(self.hist) - 1

    @property
    def insufficient(self) -> bool:
        return self.n_lost < MIN_LOSSES

    @property
    def mean(self) -> float:
        return self.n_lost / self.n_opportunities

    def values_weights(self) -> tuple[list[int], list[int]]:
        """Run lengths seen, 0 first even at weight 0, and their counts."""
        ks = [0, *itertools.compress(range(1, len(self.hist)), self.hist[1:])]
        return ks, [self.hist[k] for k in ks]

    def pmf_grid(self) -> array:
        """Per-transmission law on 0..max_cluster."""
        return array("d", map(operator.truediv, self.hist,
                              itertools.repeat(self.n_opportunities)))

    @cached_property
    def cdf(self) -> array:
        """Empirical CDF on 0..max_cluster, summed in order; its last entry
        is 1 up to round-off."""
        return array("d", itertools.accumulate(self.pmf_grid()))

    def quantile(self, target: float) -> int:
        return quantile(self, target)


def extract_clusters(trace) -> ClusterDistribution:
    """Count maximal loss runs in a trace (blocked packets are not losses).

    ``trace`` is a stored trace, as ``_trace.read_binary`` checked it, or
    a ``PacketTrace``, counted through its stored form ``trace.stored``:
    the runs are counted from the packed payload.  A sample of fewer than
    ``MIN_LOSSES`` losses is flagged ``insufficient``.
    """
    stored = trace if isinstance(trace, BinaryTrace) else trace.stored
    return ClusterDistribution(hist=_window_hist(stored.payload, stored.n_packets),
                               n_slots=stored.n_packets)


def _window_hist(payload, n: int) -> array:
    """The window histogram of the ``n`` packets of a packed payload, read
    a block of ``_RUN_BLOCK`` packets at a time as an int, first packet in
    the high bit, set where received.  Each block adds the run its first
    reception ends (with the losses carried from the blocks before) and the
    runs between its receptions, and carries the losses after its last
    reception on."""
    runs: Counter[int] = Counter()  # maximal loss runs by length
    open_run = n_received = 0
    opens_lost = not payload[0] >> 7
    step = _RUN_BLOCK // 8
    for lo in range(0, len(payload), step):
        chunk = payload[lo:lo + step]
        size = min(8 * len(chunk), n - 8 * lo)
        bits = int.from_bytes(chunk, "big") >> (8 * len(chunk) - size)  # no pad bits
        if not bits:
            open_run += size
            continue
        top = bits.bit_length()  # size - top losses open the block
        last = (bits & -bits).bit_length() - 1  # losses after its last reception
        if open_run + size - top:
            runs[open_run + size - top] += 1
        n_received += bits.bit_count()
        _add_runs((((1 << top) - 1) ^ bits) >> last, runs)
        open_run = last
    if open_run:
        runs[open_run] += 1
    hist = array("q", [0]) * (max(runs, default=0) + 1)
    for k, count in runs.items():
        hist[k] = count
    # a window per reception, and one more when the trace opens with a loss;
    # those that end no run are the zeros
    hist[0] = n_received + opens_lost - sum(runs.values())
    return hist


def _add_runs(lost: int, runs: Counter) -> None:
    """Add the maximal runs of set bits of ``lost`` to ``runs``, by length.

    After ``lost &= lost << 1`` a set bit ends one more set bit in a row,
    so each step keeps a run but one bit shorter, and the popcount falls by
    the number of runs at least as long as the steps so far.  A run still
    there after ``_LADDER - 1`` steps is taken from the digits of the bits
    left, which by then are few."""
    at_least: list[int] = []  # at_least[k - 1]: the runs of k or more
    count = lost.bit_count()
    while lost and len(at_least) < _LADDER - 1:
        lost &= lost << 1
        count, before = lost.bit_count(), count
        at_least.append(before - count)
    long_runs = format(lost, "b").replace("0", " ").split() if lost else []
    runs.update(len(digits) + len(at_least) for digits in long_runs)
    at_least.append(len(long_runs))
    for k in range(1, len(at_least)):
        if at_least[k - 1] > at_least[k]:
            runs[k] += at_least[k - 1] - at_least[k]


# Cephes lgam (scipy.special.gammaln): Stirling-series polynomial A, and the
# rational approximation B/C of log Gamma(2 + x) for x in [0, 1)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def _polevl(x, coefs):
    """Horner's rule, leading coefficient first (Cephes ``polevl``)."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _lgam_below_13(x: float) -> float:
    """Cephes ``lgam`` for 0 < x < 13: recur into [2, 3), then B/C."""
    if not x > 0.0:
        raise ValueError(f"gammaln is ported for x > 0, got {x}")
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x = x + (p - 2.0)
    return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)


def _gammaln(x: float) -> float:
    """``scipy.special.gammaln`` bit for bit, for x > 0 and non-finite x.

    An operation-for-operation port of Cephes ``lgam``, which scipy 1.17
    calls, so the negative-binomial fit keeps its bytes without the 0.3 s
    ``scipy.special`` import.  ``log`` is libm's, through ``math.log``.
    """
    if not math.isfinite(x):  # Cephes returns a non-finite x as it is
        return x
    if x < 13.0:
        return _lgam_below_13(x)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:  # Cephes stops at the leading term
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3)
                    * p + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


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


def _fit_nb_mle(dist: ClusterDistribution) -> tuple[float, float]:
    mean = dist.mean
    if mean <= 0:
        raise FitDiverged("negative-binomial fit needs a positive mean")
    values, weights = ([float(x) for x in seq] for seq in dist.values_weights())
    terms = list(zip(values, weights, [_gammaln(k + 1) for k in values]))

    def nll(logr: float) -> float:
        r = math.exp(logr)
        p = r / (r + mean)
        gammaln_r, log_p, log_q = _gammaln(r), math.log(p), math.log1p(-p)
        # each run length's weighted term, summed correctly rounded: the
        # same bits on every host, which no BLAS dot product promises
        return -math.fsum(w * (_gammaln(k + r) - gammaln_r - log_k_factorial
                               + r * log_p + k * log_q)
                          for k, w, log_k_factorial in terms)

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
    # its end, where it finished or reached the run cap
    table = cdf_table(family, params)
    model = itertools.repeat(0.0, table.start)
    if table.start <= dist.max_cluster:
        held = table.grow(k=dist.max_cluster)
        model = itertools.chain(model, held, itertools.repeat(held[-1]))
    err = max(map(abs, map(operator.sub, dist.cdf, model)))
    return FitResult(family=family, params=params, max_cdf_error=err)


def select_best(fits) -> FitResult:
    """Smallest worst-case CDF error wins; near-ties (within ``_TIE_TOL``)
    go to fewer parameters."""
    fits = list(fits)
    if not fits:
        raise ClusterStatsError("select_best needs at least one fit")
    best_err = min(f.max_cdf_error for f in fits)
    contenders = [f for f in fits if f.max_cdf_error <= best_err + _TIE_TOL]
    return min(contenders, key=lambda f: (f.family.n_params, f.max_cdf_error))

