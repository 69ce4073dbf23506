"""Loss-cluster statistics, discrete model fits, and latency prediction.

Consecutive channel losses cluster, and the cluster-size law is what turns
a packet error rate into a latency bound: a relayed packet that follows a
run of n losses lands exactly n transmit periods later than the minimum.
The pipeline here extracts the per-transmission run-length law (zeros
included), fits negative-binomial / Poisson / binomial candidates by
maximum likelihood, picks the best by worst-case CDF error, and maps
quantiles of the winner to statistically-averaged latency (SAL) figures.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ._tables import OutOfRange, data_path, read_table
from .node import LinkConfig

MIN_LOSSES = 10  # below this the run-length sample has no inferential value
DEFAULT_TARGETS = (0.9, 0.95, 0.99, 0.999)
_BLOCK = 1 << 14  # packets per block of the draws and the run scans
_RUN_CAP = 10**7  # largest run a CDF table holds: model quantiles and NB cluster draws
_LOG_MIN = math.log(sys.float_info.min)
_TABLE_CHUNK = 1 << 16  # most terms CdfTable steps at once
_TIE_TOL = 1e-4  # CDF-error margin within which select_best calls fits tied


class ClusterStatsError(ValueError):
    """Base class for statistics failures."""


class FitDiverged(ClusterStatsError):
    pass


def _packet_blocks(n: int):
    """Slices of ``_BLOCK`` consecutive packets that cover ``n``."""
    for lo in range(0, n, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, n))


def _runs_before(received: np.ndarray, value: bool):
    """Per packet block: the block and, for each of its packets, how many
    packets just before it have ``received == value``.  With ``value``
    False that is the loss run a received packet ends; with True, a
    received packet's offset in its run of receptions.  The scan carries
    the last index of the other value across blocks."""
    last = -1
    for block in _packet_blocks(received.size):
        idx = np.arange(block.start, block.stop)
        ends = np.where(received[block] != value, idx, last)
        np.maximum.accumulate(ends, out=ends)  # the last other-value index so far
        idx -= 1  # minus the last other-value index before each packet
        idx[0] -= last
        idx[1:] -= ends[:-1]
        yield block, idx
        last = int(ends[-1])


def _trailing_run(received: np.ndarray, last_runs: np.ndarray) -> int:
    """The losses after the last packet, from the last block's runs."""
    return 0 if received[-1] else int(last_runs[-1]) + 1


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


class Family(str, Enum):
    NEG_BINOMIAL = "negbinomial"
    POISSON = "poisson"
    BINOMIAL = "binomial"

    @property
    def n_params(self) -> int:
        return 1 if self is Family.POISSON else 2


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
    calls, so the fits and quantiles keep their bytes without the 0.3 s
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


def _xlogy(x, y: float) -> np.ndarray:
    """``scipy.special.xlogy`` for one y: 0 where x == 0 (unless y is NaN),
    else x * log(y), with libm's ``log`` and log(0) = -inf."""
    log_y = math.log(y) if y > 0.0 else -math.inf if y == 0.0 else math.nan
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):  # 0 * inf, replaced by the 0
        return np.where((x == 0.0) & (not math.isnan(y)), 0.0, x * log_y)[()]


def nb_pmf(k, r: float, p: float) -> np.ndarray:
    """P(K=k) = Gamma(k+r) / (k! Gamma(r)) * p^r * (1-p)^k, any real r > 0."""
    if r <= 0:
        raise ClusterStatsError(f"r must be > 0, got {r}")
    if not 0.0 < p < 1.0:
        raise ClusterStatsError(f"p must be in (0, 1), got {p}")
    k = np.asarray(k)
    if np.any(k < 0) or np.any(k != np.floor(k)):
        raise ClusterStatsError("k must be a nonnegative integer")
    k = k.astype(np.int64)
    logpmf = (_gammaln(k + r) - _gammaln(r) - _gammaln(k + 1)
              + r * math.log(p) + k * math.log1p(-p))
    return np.exp(logpmf)


def poisson_pmf(k, lam: float) -> np.ndarray:
    if lam < 0:
        raise ClusterStatsError(f"lambda must be >= 0, got {lam}")
    k = np.asarray(k, dtype=np.int64)
    if lam == 0.0:
        return (k == 0).astype(float)
    kk = np.maximum(k, 0)
    return np.where(k >= 0, np.exp(_xlogy(kk, lam) - lam - _gammaln(kk + 1)), 0.0)


def binom_pmf(k, n: int, p: float) -> np.ndarray:
    if not (n >= 1 and float(n).is_integer()):
        raise ClusterStatsError(f"n must be an integer >= 1, got {n}")
    n = int(n)
    if not 0.0 <= p <= 1.0:
        raise ClusterStatsError(f"p must be in [0, 1], got {p}")
    k = np.asarray(k, dtype=np.int64)
    inside = (k >= 0) & (k <= n)
    kk = np.clip(k, 0, n)
    logpmf = (_gammaln(n + 1) - _gammaln(kk + 1) - _gammaln(n - kk + 1)
              + _xlogy(kk, p) + _xlogy(n - kk, 1.0 - p))
    return np.where(inside, np.exp(logpmf), 0.0)


def _family_pmf(family: Family, params: tuple[float, ...], k) -> np.ndarray:
    pmfs = {Family.NEG_BINOMIAL: nb_pmf, Family.POISSON: poisson_pmf, Family.BINOMIAL: binom_pmf}
    return pmfs[family](k, *params)


class CdfTable:
    """CDF of a count law at 0, 1, ... from its pmf recurrence
    ``pmf(k) = pmf(k-1) * ratio(k)``, summed in order as a plain loop would.
    It grows in chunks, doubling up to ``_TABLE_CHUNK`` terms, as far as its
    readers ask, and is finished when a term no longer moves the float CDF
    or it holds ``size`` entries.  Entries before ``start`` are 0."""

    def __init__(self, pmf0: float, log_pmf0: float, ratio, size: int = _RUN_CAP + 1,
                 start: int = 0):
        k, pmf = start, pmf0
        if pmf < sys.float_info.min:
            # pmf(0) underflows (NB r=200, p=1e-3): step the leading terms in log
            # space, a chunk at a time, and count them as 0; start from the
            # exactly rounded log sum, as a running sum drifts by ~1e-12 over two
            # thousand steps.  math.log and an in-order cumsum step as a loop.
            log_pmf, logs = log_pmf0, [np.array([log_pmf0])]
            while log_pmf < _LOG_MIN and k < size - 1:
                ks = np.arange(k + 1, min(k + 1 + _TABLE_CHUNK, size), dtype=np.float64)
                chunk = np.fromiter(map(math.log, ratio(ks).tolist()), np.float64, ks.size)
                walk = chunk.copy()
                walk[0] += log_pmf
                np.cumsum(walk, out=walk)
                up = np.flatnonzero(~(walk < _LOG_MIN))
                steps = int(up[0]) + 1 if up.size else ks.size
                logs.append(chunk[:steps])
                k, log_pmf = k + steps, float(walk[steps - 1])
            pmf = math.exp(math.fsum(itertools.chain.from_iterable(c.tolist() for c in logs)))
        self._buf = np.zeros(size)  # only the pages written take memory
        self._buf[k] = pmf
        self._n, self._pmf, self._ratio = k + 1, pmf, ratio
        self.finished = k == size - 1

    def grow(self, upto: float = -math.inf, k: int = 0) -> np.ndarray:
        """Extend the table until its last value is at least ``upto`` and it
        holds index ``k``, or it is finished; returns the table."""
        while not self.finished and (self._buf[self._n - 1] < upto or self._n <= k):
            lo = self._n
            hi = min(2 * lo, lo + _TABLE_CHUNK, self._buf.size)
            chunk = self._buf[lo:hi]
            chunk[:] = self._ratio(np.arange(lo, hi, dtype=np.float64))  # pmf(k) / pmf(k-1)
            chunk[0] *= self._pmf
            np.cumprod(chunk, out=chunk)  # cumprod and cumsum go in order, as a loop
            self._pmf = float(chunk[-1])
            chunk[0] += self._buf[lo - 1]
            np.cumsum(chunk, out=chunk)
            stuck = np.flatnonzero(chunk == self._buf[lo - 1:hi - 1])
            self._n = lo + int(stuck[0]) if stuck.size else hi
            self.finished = stuck.size > 0 or hi == self._buf.size
        return self._buf[:self._n]


def cdf_table(family: Family, params: tuple[float, ...]) -> CdfTable:
    """A law's CDF table from its pmf(0), the log of that and pmf(k) / pmf(k-1)."""
    pmf0 = float(_family_pmf(family, params, 0))  # raises outside the family's domain
    if not np.isfinite(params).all():
        raise ClusterStatsError(f"{family.value} parameters must be finite, got {params}")
    if family is Family.NEG_BINOMIAL:
        r, p = params
        # p**r, the NB sampler's p0, rather than pmf0 = exp(r log p)
        return CdfTable(p ** r, r * math.log(p), lambda k: (1.0 - p) * (k - 1 + r) / k)
    if family is Family.POISSON:
        lam = params[0]
        return CdfTable(pmf0, -lam, lambda k: lam / k)
    n, p = int(params[0]), params[1]
    if p == 1.0:  # all mass at n, where the ratio would divide by 1 - p = 0
        return CdfTable(1.0, 0.0, None, size=n + 1, start=n)
    return CdfTable(pmf0, n * math.log1p(-p), lambda k: (n - k + 1) * p / (k * (1.0 - p)),
                    size=n + 1)


@dataclass(frozen=True)
class FitResult:
    """A fitted (or table-supplied) cluster-law model."""

    family: Family
    params: tuple[float, ...]
    max_cdf_error: float = math.nan

    def pmf(self, k) -> np.ndarray:
        return _family_pmf(self.family, self.params, k)

    @cached_property
    def _table(self) -> CdfTable:
        return cdf_table(self.family, self.params)

    def cdf(self, k) -> np.ndarray:
        """CDF at ``k`` from the law's table, flat past the table's end."""
        k = np.asarray(k, dtype=np.int64)
        cdf = self._table.grow(k=int(k.max()) if k.size else 0)
        return cdf[np.minimum(k, cdf.size - 1)]

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
        if self.family is Family.NEG_BINOMIAL:
            return f"negbinomial(r={self.params[0]:.6g}, p={self.params[1]:.6g})"
        if self.family is Family.POISSON:
            return f"poisson(lambda={self.params[0]:.6g})"
        return f"binomial(n={int(self.params[0])}, p={self.params[1]:.6g})"


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


def _fit_nb_mle(values: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    n = weights.sum()
    mean = float((values * weights).sum() / n)
    if mean <= 0:
        raise FitDiverged("negative-binomial fit needs a positive mean")

    def nll(logr: float) -> float:
        r = math.exp(logr)
        p = r / (r + mean)
        ll = weights @ (_gammaln(values + r) - _gammaln(r) - _gammaln(values + 1)
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
    values, weights = dist.values_weights()
    values = values.astype(float)
    weights = weights.astype(float)
    mean = dist.mean

    if family is Family.POISSON:
        params: tuple[float, ...] = (mean,)
    elif family is Family.NEG_BINOMIAL:
        params = _fit_nb_mle(values, weights)
    else:
        n = max(1, dist.max_cluster)
        params = (float(n), mean / n)

    model_cdf = np.cumsum(_family_pmf(family, params, np.arange(dist.max_cluster + 1)))
    err = dist.cdf - model_cdf
    return FitResult(family=family, params=params, max_cdf_error=float(np.max(np.abs(err))))


def select_best(fits) -> FitResult:
    """Smallest worst-case CDF error wins; near-ties (within ``_TIE_TOL``)
    go to fewer parameters."""
    fits = list(fits)
    if not fits:
        raise ClusterStatsError("select_best needs at least one fit")
    best_err = min(f.max_cdf_error for f in fits)
    contenders = [f for f in fits if f.max_cdf_error <= best_err + _TIE_TOL]
    return min(contenders, key=lambda f: (f.family.n_params, f.max_cdf_error))


def quantile(model, target_prob: float) -> int:
    """Smallest k with CDF(k) >= target_prob, in an empirical CDF or a model's table."""
    if not 0.0 < target_prob < 1.0:
        raise ClusterStatsError(f"target probability must be in (0, 1), got {target_prob}")
    if isinstance(model, ClusterDistribution):  # the longest run is the support's end
        return min(int(np.searchsorted(model.cdf, target_prob)), model.max_cluster)
    cdf = model._table.grow(target_prob)
    if not cdf[-1] >= target_prob:
        raise ClusterStatsError(f"quantile({target_prob}) of {model.describe()} is beyond "
                                f"{cdf.size - 1}, where its CDF ends at {cdf[-1]!r}")
    return int(np.searchsorted(cdf, target_prob))


@dataclass(frozen=True)
class LatencyParams:
    """Timing constants for the cluster-to-latency map."""

    l0_s: float
    ipd_s: float
    pt_s: float

    def __post_init__(self):
        if self.l0_s < 0 or self.ipd_s < 0 or self.pt_s < 0:
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


def prediction_error(model, empirical, targets=DEFAULT_TARGETS) -> np.ndarray:
    """Per-target quantile gap, model minus empirical, in packets."""
    return np.array([quantile(model, t) - quantile(empirical, t) for t in targets],
                    dtype=np.int64)


def _model_row(row: dict[str, str]) -> tuple[float, Family, list[float]]:
    family = Family(row["family"].strip())
    params = [float(row["param1"])]
    if row["param2"]:
        params.append(float(row["param2"]))
    if len(params) != family.n_params:
        raise ValueError(f"{family.value} takes {family.n_params} parameter(s), got {len(params)}")
    # model_at interpolates in log space, which needs every parameter > 0
    if not all(0 < x < math.inf for x in params):
        raise ValueError(f"parameters must be finite and > 0, got {params}")
    _family_pmf(family, tuple(params), 0)  # raises outside the family's domain
    return float(row["per"]), family, params


@dataclass(frozen=True)
class ModelTable:
    """PER-indexed cluster-law models with log-PER parameter interpolation."""

    pers: np.ndarray
    models: tuple[FitResult, ...]

    def __post_init__(self):
        if self.pers.size == 0:
            raise ClusterStatsError("model table needs at least one row")
        if np.any(np.diff(self.pers) <= 0):
            raise ClusterStatsError("model table PERs must be strictly increasing")

    @property
    def per_min(self) -> float:
        return float(self.pers[0])

    @property
    def per_max(self) -> float:
        return float(self.pers[-1])

    @classmethod
    def from_rows(cls, rows) -> "ModelTable":
        rows = sorted(rows, key=lambda r: r[0])
        pers = np.array([r[0] for r in rows], dtype=float)
        models = tuple(FitResult(family=Family(r[1]), params=tuple(r[2])) for r in rows)
        return cls(pers=pers, models=models)

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
        interpolated instead and a Poisson law carries it.
        """
        idx = int(np.searchsorted(self.pers, per))
        # a row within 1e-9 relative on either side is that row: grid PERs
        # reconstructed with float round-off, the span's ends included
        for row in (idx - 1, idx):
            if 0 <= row < self.pers.size and math.isclose(per, self.pers[row], rel_tol=1e-9):
                return self.models[row]
        if not self.per_min <= per <= self.per_max:  # NaN included
            raise OutOfRange("per", per, "model table", self.per_min, self.per_max)
        lo, hi = self.models[idx - 1], self.models[idx]
        w = ((math.log(per) - math.log(self.pers[idx - 1]))
             / (math.log(self.pers[idx]) - math.log(self.pers[idx - 1])))

        def geo(a: float, b: float) -> float:
            return math.exp((1.0 - w) * math.log(a) + w * math.log(b))

        if lo.family is hi.family and lo.family is not Family.BINOMIAL:
            params = tuple(geo(a, b) for a, b in zip(lo.params, hi.params))
            return FitResult(family=lo.family, params=params)
        return FitResult(family=Family.POISSON, params=(geo(lo.mean, hi.mean),))


@dataclass(frozen=True)
class SalPoint:
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
