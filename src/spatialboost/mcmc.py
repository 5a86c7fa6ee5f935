"""Polya-Gamma augmented Gibbs sampler for the spike-and-slab logistic model.

Cycle order is sigma^2 -> theta -> omega -> beta. Omega is drawn from beta
in each sweep and read only by that sweep's beta draw, so the chain's state
is (beta, theta, sigma^2). The omega block is one exact PG(1, z_i) draw per
individual by Devroye's alternating-series rejection sampler (Polson, Scott
& Windle 2013), vectorised over the sweep: every pending entry is proposed
at once (exponential tail or truncated inverse Gaussian), the series decides
each entry on its own term count, and only the rejected entries are proposed
again. The beta draw is the Woodbury-form draw of Bhattacharya, Chakraborty
& Mallick (2016) on the design, run in its space (see
``spatialboost.linalg``), with A the markers with theta = 1:

- rank space (3 l < 2 n), on X_l = U diag(d) V': it factors the l x l
  weighted Gram and the l x l core and touches the p + 1 coefficients only
  through matvecs with V, for O(n l^2 + l^3 + |A| l^2 + l p) per draw;
- sample space (3 l >= 2 n): the n x n core is (sqrt(omega) sqrt(omega)') o K
  plus a rank-|A| update, with K = X X' computed once per design, for
  O(n^2 |A| + 2 n^3/3 + n p) per draw.

In both spaces the core is solved by one LU solve per draw (see
``sample_beta``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spatialboost._special import erfcx
from spatialboost.em import Hyperparameters, e_step, sigma2_posterior_params
from spatialboost.errors import ConfigurationError
from spatialboost.linalg import TruncatedDesign, Workspace, weighted_woodbury

_TRUNC = 0.64  # crossover point between the two series representations
_PI2 = math.pi * math.pi
# the constant factor (2/pi) exp(pi^2 T/8 - 1/(2T)) of _tail_mass's q/p
_QDIVP = 2.0 / math.pi * math.exp(_PI2 * _TRUNC / 8.0 - 0.5 / _TRUNC)


def _tail_mass(zh: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """Probability of proposing from the exponential tail (x > _TRUNC).

    With Phi written through erfcx the zh^2 terms of both proposal masses
    cancel, so the ratio q/p of the two masses is

        (2/pi) exp(pi^2 T/8 - 1/(2T)) fz (erfcx(t_a) + erfcx(-s))

    with T = _TRUNC, t_a = (T zh + 1)/sqrt(2T) and s = (T zh - 1)/sqrt(2T).
    A saturated |z| makes q/p overflow to inf and the tail mass 0.
    """
    root = math.sqrt(0.5 / _TRUNC)
    ta, ms = erfcx(np.stack((root * (_TRUNC * zh + 1.0),
                             root * (1.0 - _TRUNC * zh))))
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + _QDIVP * fz * (ta + ms))


def _rtigauss(zh: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-Gaussian(1/zh, 1) draws truncated to (0, _TRUNC), one per entry.

    Below zh = 1/_TRUNC the proposal is Devroye's exponential construction
    with an exp(-zh^2 x / 2) acceptance; above it, untruncated IG draws are
    kept when they fall below _TRUNC. Each branch reruns only the entries it
    has not yet accepted.
    """
    t = _TRUNC
    x = np.empty(zh.size)
    todo = np.flatnonzero(zh < 1.0 / t)
    while todo.size:
        e1, e2 = rng.exponential(size=(2, todo.size))
        cand = t / (1.0 + t * e1) ** 2
        ok = (e1 * e1 <= 2.0 * e2 / t) & (
            rng.random(todo.size) <= np.exp(-0.5 * zh[todo] ** 2 * cand)
        )
        x[todo[ok]] = cand[ok]
        todo = todo[~ok]
    todo = np.flatnonzero(zh >= 1.0 / t)
    while todo.size:
        mu = 1.0 / zh[todo]
        my = mu * rng.standard_normal(todo.size) ** 2
        # smaller root of the IG quadratic, in the form free of cancellation
        cand = mu / (1.0 + 0.5 * my + 0.5 * np.sqrt(4.0 * my + my * my))
        flip = rng.random(todo.size) > mu / (mu + cand)
        cand = np.where(flip, mu * mu / cand, cand)
        ok = cand <= t
        x[todo[ok]] = cand[ok]
        todo = todo[~ok]
    return x


def _series_accept(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Alternating-series accept/reject of the proposals ``x``.

    Every entry walks the partial sums of the tilted Jacobi density until
    an odd term accepts it or an even term rejects it; entries that are
    decided drop out. Returns the acceptance mask.
    """
    # term n is pi h exp(pre + h^2 slope) with h = n + 1/2, in the left
    # (x <= _TRUNC) or the right representation
    left = x <= _TRUNC
    pre = np.where(left, 1.5 * np.log(2.0 / (math.pi * x)), 0.0)
    slope = np.where(left, -2.0 / x, -_PI2 * x / 2.0)

    def coef(n: int) -> np.ndarray:
        h = n + 0.5
        return math.pi * h * np.exp(pre + h * h * slope)

    accepted = np.zeros(x.size, dtype=bool)
    idx = np.arange(x.size)
    s = coef(0)
    u = rng.random(x.size) * s
    n = 0
    while idx.size:
        n += 1
        if n % 2 == 1:
            s = s - coef(n)
            done = u <= s
            accepted[idx[done]] = True
        else:
            s = s + coef(n)
            done = u > s
        if done.any():
            keep = ~done
            idx, pre, slope, s, u = (a[keep] for a in (idx, pre, slope, s, u))
    return accepted


def sample_pg_vector(zs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent exact PG(1, z_i) draws, one per entry, in index order.

    All entries are proposed together; those the series rejects are
    proposed again in the next round.
    """
    z = np.asarray(zs, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        raise ConfigurationError(
            f"z must be finite, got {z[bad[0]]} at index {bad[0]}"
        )
    zh = np.abs(z) / 2.0
    fz = _PI2 / 8.0 + zh * zh / 2.0
    p_tail = _tail_mass(zh, fz)
    out = np.empty(z.size)
    pending = np.arange(z.size)
    while pending.size:
        tail = rng.random(pending.size) < p_tail[pending]
        x = np.empty(pending.size)
        k = pending[tail]
        x[tail] = _TRUNC + rng.exponential(size=k.size) / fz[k]
        x[~tail] = _rtigauss(zh[pending[~tail]], rng)
        ok = _series_accept(x, rng)
        out[pending[ok]] = x[ok] / 4.0
        pending = pending[~ok]
    return out


def sample_sigma2(
    theta: np.ndarray,
    beta: np.ndarray,
    hyper: Hyperparameters,
    rng: np.random.Generator,
) -> float:
    shape, scale = sigma2_posterior_params(theta, beta, hyper)
    return float(scale / rng.gamma(shape))


def sample_theta(
    beta: np.ndarray,
    sigma2: float,
    boosts: np.ndarray,
    hyper: Hyperparameters,
    rng: np.random.Generator,
) -> np.ndarray:
    """Independent Bernoulli draws from the conditional inclusion
    probabilities; the intercept indicator is forced to 1."""
    probs = e_step(beta, sigma2, boosts, hyper)
    theta = (rng.random(probs.size) < probs).astype(np.int8)
    theta[0] = 1
    return theta


def sample_beta(
    omega: np.ndarray,
    theta: np.ndarray,
    sigma2: float,
    design: TruncatedDesign,
    xty: np.ndarray,
    hyper: Hyperparameters,
    rng: np.random.Generator,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Gaussian conditional draw N(Q^-1 X'(y - 1/2), Q^-1) with
    Q = X' Omega X + Sigma^-1, via the Woodbury-form covariance factor.

    ``xty`` is the sufficient statistic X'(y - 1/2) (``design.rmatvec``),
    fixed for a chain. X' Omega X ~ S'S, with S = C_w V' in rank space and
    S = diag(sqrt(omega)) X in sample space; products with S are matvecs,
    so S is never formed. With u ~ N(0, Sigma), an auxiliary normal delta of
    the core's dimension (l or n) and v = Sigma X'(y - 1/2) + u, the draw is

        v - Sigma S' (I + S Sigma S')^-1 (S v + delta):

    the posterior mean and the Bhattacharya et al. perturbation are linear
    in the core's right-hand side, so they are summed before the core is
    solved and each draw takes one LU solve. The core is built in
    ``workspace`` (see ``weighted_woodbury``).
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ConfigurationError("omega entries must be positive")
    sigma = sigma2 * (np.asarray(theta, float) * hyper.kappa + 1.0 - theta)
    solver = weighted_woodbury(design, omega, sigma, workspace)
    u = rng.standard_normal(design.p1) * np.sqrt(sigma)
    delta = rng.standard_normal(solver.core_dim)
    v = sigma * xty + u
    w = solver.solve_core(solver.left(v) + delta)
    return v - sigma * solver.left_t(w)


@dataclass
class GibbsState:
    """What one sweep reads of the last: beta, theta (intercept pinned at 1)
    and sigma^2."""

    beta: np.ndarray
    theta: np.ndarray
    sigma2: float


@dataclass
class ChainSummary:
    """Retained-draw summary: pi_hat_j = mean of theta_j over retained draws,
    and the retained draws themselves."""

    pi_hat: np.ndarray
    draws_retained: int
    theta_draws: np.ndarray  # retained x (p+1), int8
    beta_draws: np.ndarray  # retained x (p+1)
    sigma2_draws: np.ndarray


def initial_state(design: TruncatedDesign, hyper: Hyperparameters) -> GibbsState:
    p1 = design.p1
    theta = np.zeros(p1, dtype=np.int8)
    theta[0] = 1
    return GibbsState(
        beta=np.zeros(p1),
        theta=theta,
        sigma2=hyper.lam / (hyper.nu + 1.0),
    )


def gibbs_cycle(
    state: GibbsState,
    design: TruncatedDesign,
    xty: np.ndarray,
    boosts: np.ndarray,
    hyper: Hyperparameters,
    rng: np.random.Generator,
    workspace: Workspace | None = None,
) -> GibbsState:
    """One full sweep: sigma^2 -> theta -> omega -> beta, with ``xty`` the
    response's sufficient statistic X'(y - 1/2); the beta draw builds its
    core, and each product casts its blocks of a sample-space X', in
    ``workspace``."""
    sigma2 = sample_sigma2(state.theta, state.beta, hyper, rng)
    theta = sample_theta(state.beta, sigma2, boosts, hyper, rng)
    omega = sample_pg_vector(design.matvec(state.beta, workspace), rng)
    beta = sample_beta(omega, theta, sigma2, design, xty, hyper, rng, workspace)
    return GibbsState(beta=beta, theta=theta, sigma2=sigma2)


def resolve_burnin(iters: int, burnin: int | None) -> int:
    """``burnin``, or 20% of ``iters`` when None; iters > burnin >= 0."""
    burnin = iters // 5 if burnin is None else burnin
    if not iters > burnin >= 0:
        raise ConfigurationError(f"need iters > burnin >= 0, got {iters}, {burnin}")
    return burnin


def gibbs_run(
    design: TruncatedDesign,
    y: np.ndarray,
    boosts: np.ndarray,
    hyper: Hyperparameters,
    iters: int,
    burnin: int | None = None,
    seed: int | None = 0,
) -> ChainSummary:
    """Run one chain and estimate marginal association probabilities.

    ``burnin`` defaults to 20% of ``iters``. With a fixed seed the summary is
    bit-identical across runs. The draws after burn-in are kept in the
    summary's theta, beta and sigma^2 arrays; burn-in draws are not kept.
    In sample space every sweep builds its Woodbury core, and every product
    casts its blocks of X', in one ``Workspace``, which the chain releases
    when it returns.
    """
    burnin = resolve_burnin(iters, burnin)
    rng = np.random.default_rng(seed)
    workspace = Workspace()
    xty = design.rmatvec(np.asarray(y, dtype=float) - 0.5, workspace)

    retained = iters - burnin
    theta_draws = np.empty((retained, design.p1), dtype=np.int8)
    beta_draws = np.empty((retained, design.p1))
    sigma2_draws = np.empty(retained)
    state = initial_state(design, hyper)
    for it in range(iters):
        state = gibbs_cycle(state, design, xty, boosts, hyper, rng, workspace)
        if it >= burnin:
            k = it - burnin
            theta_draws[k] = state.theta
            beta_draws[k] = state.beta
            sigma2_draws[k] = state.sigma2

    pi_hat = theta_draws.mean(axis=0)
    pi_hat[0] = 1.0
    return ChainSummary(
        pi_hat=pi_hat,
        draws_retained=retained,
        theta_draws=theta_draws,
        beta_draws=beta_draws,
        sigma2_draws=sigma2_draws,
    )
