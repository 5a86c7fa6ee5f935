"""Normal and logistic special functions in numpy.

``erf``, ``erfc`` and ``ndtr`` are ports of the Cephes (Moshier) rational
approximations that scipy.special evaluates, with the same coefficients,
branch points and operation order, so they agree with scipy to a few ulps
(the exponential is numpy's, not libm's):

    erf(x)  = x T(x^2) / U(x^2)                      for |x| <= 1
    erfc(x) = 1 - erf(x)                             for 0 <= x < 1
            = exp(-x^2) P(x) / Q(x)                  for 1 <= x < 8
            = exp(-x^2) R(x) / S(x)                  for 8 <= x, 0 once
                                                       x^2 > MAXLOG

``erfcx(x) = exp(x^2) erfc(x)`` is P(x)/Q(x) or R(x)/S(x) itself above 1,
so it never forms the underflowing erfc there. Every branch runs on its own
piece of the input: contiguous slices when the input is ascending, boolean
masks otherwise.
"""

from __future__ import annotations

import math

import numpy as np

SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_XMAX = math.sqrt(_MAXLOG)  # erfc(x) underflows to 0 above this

# coefficients from the highest power down; Q, S and U are monic
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)

# R(x)/S(x) = R~(w)/S~(w) in w = 1/x with the coefficient order reversed,
# which does not overflow for large x
_R_INV = _R[::-1] + (0.0,)
_S_INV = _S[::-1] + (1.0,)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule, coefficients from the highest power down."""
    y = x * coef[0]
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule with an implied leading coefficient 1."""
    y = x + coef[0]
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _pieces(x: np.ndarray, edges: tuple) -> list:
    """Selectors of edges[k] <= x < edges[k + 1], the last piece closed at
    its top: slices when x is ascending, boolean masks otherwise."""
    if x.size and x[0] >= edges[0] and np.all(x[1:] >= x[:-1]):
        ks = [0, *np.searchsorted(x, edges[1:-1]).tolist(),
              int(np.searchsorted(x, edges[-1], side="right"))]
        return [slice(a, b) for a, b in zip(ks[:-1], ks[1:])]
    above = [x >= e for e in edges[:-1]] + [x > edges[-1]]
    return [lo ^ hi for lo, hi in zip(above[:-1], above[1:])]  # hi implies lo


def _piecewise(x: np.ndarray, edges: tuple, funcs: tuple) -> np.ndarray:
    """funcs[k](x) on the piece edges[k] <= x < edges[k + 1] of a flat x
    (see ``_pieces``), skipping empty pieces; NaN outside every piece."""
    out = np.full(x.shape, np.nan)
    for sel, f in zip(_pieces(x, edges), funcs):
        a = x[sel]
        if a.size:
            out[sel] = f(a)
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfcx_p(x: np.ndarray) -> np.ndarray:
    """erfcx(x) = exp(x^2) erfc(x) on [1, 8)."""
    return _polevl(x, _P) / _p1evl(x, _Q)


def _erfcx_r(x: np.ndarray) -> np.ndarray:
    """erfcx on [8, inf)."""
    w = 1.0 / x
    return _polevl(w, _R_INV) / _polevl(w, _S_INV)


def _erfc_p(x: np.ndarray) -> np.ndarray:
    """erfc on [1, 8)."""
    return np.exp(-x * x) * _polevl(x, _P) / _p1evl(x, _Q)


def _erfc_r(x: np.ndarray) -> np.ndarray:
    """erfc on [8, _XMAX]."""
    return np.exp(-x * x) * _polevl(x, _R) / _p1evl(x, _S)


def _erfc_nonneg(x: np.ndarray) -> np.ndarray:
    """erfc of a flat array of x >= 0 (NaN elsewhere)."""
    return _piecewise(
        x,
        (0.0, 1.0, 8.0, _XMAX, np.inf),
        (lambda a: 1.0 - _erf(a), _erfc_p, _erfc_r, np.zeros_like),
    )


def erfc_nonneg(x) -> np.ndarray:
    """Complementary error function of non-negative x (NaN for x < 0);
    fastest on ascending input."""
    x = np.asarray(x, dtype=float)
    return _erfc_nonneg(x.ravel()).reshape(x.shape)


def ndtr(a) -> np.ndarray:
    """Standard normal CDF, as Cephes: 0.5 + 0.5 erf(a / sqrt 2) near 0,
    0.5 erfc(|a| / sqrt 2) (or 1 minus it) elsewhere."""
    x = np.asarray(a, dtype=float) * SQRT1_2
    z = np.abs(x)
    y = erfc_nonneg(z)
    y *= 0.5
    np.subtract(1.0, y, out=y, where=x > 0)
    near = z < SQRT1_2
    if near.any():
        y[near] = 0.5 + 0.5 * _erf(x[near])
    return y


def erfcx(x) -> np.ndarray:
    """Scaled complementary error function exp(x^2) erfc(x): P(|x|)/Q(|x|)
    on 1 <= |x| < 8 and R(|x|)/S(|x|) above give erfcx(|x|), exp(x^2)
    (1 - erf(x)) covers |x| < 1, and the reflection 2 exp(x^2) - erfcx(-x)
    takes x <= -1, where it overflows to inf without a warning."""
    x = np.asarray(x, dtype=float)
    t = x.ravel()
    a = np.abs(t)
    out = _piecewise(a, (1.0, 8.0, np.inf), (_erfcx_p, _erfcx_r))
    near = a < 1.0
    v = t[near]
    out[near] = np.exp(v * v) * (1.0 - _erf(v))
    neg = t <= -1.0
    v = t[neg]
    with np.errstate(over="ignore"):
        out[neg] = 2.0 * np.exp(v * v) - out[neg]
    return out.reshape(x.shape)


def expit(x) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)); exp(-x) overflowing to inf
    gives the limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def chi2_sf_1df(x) -> np.ndarray:
    """Upper tail P(chi^2_1 > x) = erfc(sqrt(x / 2))."""
    return erfc_nonneg(np.sqrt(0.5 * np.asarray(x, dtype=float)))
