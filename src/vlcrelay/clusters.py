"""Loss-cluster statistics, discrete model fits, and latency prediction.

Consecutive channel losses cluster, and the cluster-size law is what turns
a packet error rate into a latency bound: a relayed packet that follows a
run of n losses lands exactly n transmit periods later than the minimum.
The pipeline here extracts the per-transmission run-length law (zeros
included), fits negative-binomial / Poisson / binomial candidates by
maximum likelihood, picks the best by worst-case CDF error, and maps
quantiles of the winner to statistically-averaged latency (SAL) figures.

The model-law half, which needs no numpy (the families, a law's CDF table
and quantile, the model table and the latency map), is ``laws``; its
names are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._scan import _runs_before, _trailing_run
from ._tables import OutOfRange  # noqa: F401  (re-exported)
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


@dataclass(frozen=True)
class ClusterDistribution:
    """Empirical run-length law over per-transmission observation windows.

    ``hist[k]`` counts the windows whose loss run is ``k``, zeros included:
    every received packet (plus a virtual window when the trace opens with
    a loss) is one window.  The last entry is the longest run's.
    """

    hist: np.ndarray
    n_slots: int

    def __post_init__(self):
        hist = np.asarray(self.hist)
        if not (hist.ndim == 1 and hist.size and np.issubdtype(hist.dtype, np.integer)
                and hist.min() >= 0 and hist[-1] > 0):
            raise ClusterStatsError("hist must be a 1-D array of counts >= 0 with a "
                                    f"non-zero last entry, got {self.hist!r}")
        object.__setattr__(self, "hist", hist)

    @property
    def n_opportunities(self) -> int:
        return int(self.hist.sum())

    @property
    def n_zero(self) -> int:
        return int(self.hist[0])

    @property
    def n_runs(self) -> int:
        return self.n_opportunities - self.n_zero

    @property
    def n_lost(self) -> int:
        return int(np.arange(self.hist.size) @ self.hist)

    @property
    def max_cluster(self) -> int:
        return self.hist.size - 1

    @property
    def insufficient(self) -> bool:
        return self.n_lost < MIN_LOSSES

    @property
    def mean(self) -> float:
        return self.n_lost / self.n_opportunities

    def values_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Run lengths seen, 0 first even at weight 0, and their counts."""
        ks = np.concatenate(([0], np.flatnonzero(self.hist[1:]) + 1))
        return ks, self.hist[ks]

    def pmf_grid(self) -> np.ndarray:
        """Per-transmission law on 0..max_cluster."""
        return self.hist / self.n_opportunities

    @cached_property
    def cdf(self) -> np.ndarray:
        """Empirical CDF on 0..max_cluster; its last entry is 1 up to round-off."""
        return np.cumsum(self.pmf_grid())

    def quantile(self, target: float) -> int:
        return quantile(self, target)


def extract_clusters(trace_or_received) -> ClusterDistribution:
    """Count maximal loss runs in a trace (blocked packets are not losses).

    A sample of fewer than ``MIN_LOSSES`` losses is flagged ``insufficient``.
    """
    received = np.asarray(getattr(trace_or_received, "received", trace_or_received),
                          dtype=bool)
    if received.size == 0:
        raise ClusterStatsError("empty trace")
    # the windows' runs: the run before each received packet and the run
    # after the last packet, less the empty run before a received first packet
    hist = np.zeros(1, dtype=np.int64)
    for block, runs in _runs_before(received, False):
        counts = np.bincount(runs[received[block]])
        if counts.size > hist.size:
            hist, counts = counts, hist
        hist[:counts.size] += counts
    tail = _trailing_run(received, runs)
    hist = np.pad(hist, (0, max(0, tail + 1 - hist.size)))
    hist[tail] += 1
    hist[0] -= int(received[0])
    return ClusterDistribution(hist=hist, n_slots=int(received.size))


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
_LGAM_CHUNK = 1 << 16  # elements per pass: bounds the temporaries of a long grid


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


def _gammaln(x) -> np.ndarray:
    """``scipy.special.gammaln`` bit for bit, for x > 0 and non-finite x.

    An operation-for-operation port of Cephes ``lgam``, which scipy 1.17
    calls, so the negative-binomial fit keeps its bytes without the 0.3 s
    ``scipy.special`` import.  ``log`` is libm's through ``math.log``:
    numpy's SIMD ``np.log`` can differ from it in the last bit.  The
    Stirling branch (x >= 13) is vectorized; the few smaller elements,
    at most 13 per integer grid, go through a scalar loop.
    """
    x = np.asarray(x, dtype=float)
    out = x.flatten()  # Cephes returns a non-finite x as it is
    for start in range(0, out.size, _LGAM_CHUNK):
        part = out[start:start + _LGAM_CHUNK]
        small = np.isfinite(part) & (part < 13.0)
        huge = part > _MAXLGM
        big = (part >= 13.0) & ~huge
        xb = part[big]
        q = (xb - 0.5) * np.fromiter(map(math.log, xb), float, xb.size) - xb + _LS2PI
        series = xb <= 1e8  # Cephes stops at the leading term above 1e8
        xs = xb[series]
        p = 1.0 / (xs * xs)
        q[series] += np.where(xs >= 1000.0,
                              ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3)
                               * p + 0.0833333333333333333333) / xs,
                              _polevl(p, _LGAM_A) / xs)
        part[big] = q
        part[small] = [_lgam_below_13(v) for v in part[small].tolist()]
        part[huge] = math.inf
    return out.reshape(x.shape)[()]


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
    # np.sign and np.maximum, not math.copysign or max: they carry a NaN
    # through to the flag-2 check, as scipy's do
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    flag = 0
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
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
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            flag = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        flag = 2
    return xf, fx, num, flag


def _fit_nb_mle(dist: ClusterDistribution) -> tuple[float, float]:
    mean = dist.mean
    if mean <= 0:
        raise FitDiverged("negative-binomial fit needs a positive mean")
    values, weights = (a.astype(float) for a in dist.values_weights())
    log_k_factorial = _gammaln(values + 1)

    def nll(logr: float) -> float:
        r = math.exp(logr)
        p = r / (r + mean)
        ll = weights @ (_gammaln(values + r) - _gammaln(r) - log_k_factorial
                        + r * math.log(p) + values * math.log1p(-p))
        return -float(ll)

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
    model = np.zeros(dist.max_cluster + 1)
    table = cdf_table(family, params)
    if table.start < model.size:
        held = np.frombuffer(table.grow(k=dist.max_cluster))[:model.size - table.start]
        model[table.start:] = held[-1]
        model[table.start:table.start + held.size] = held
    np.subtract(dist.cdf, model, out=model)
    err = float(np.max(np.abs(model, out=model)))
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

