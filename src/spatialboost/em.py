"""ECM fitting of the spike-and-slab logistic model and the filtering loop.

The E-step computes conditional inclusion probabilities <theta_j>, the
CM-steps update sigma^2 (inverse-gamma mode) and beta (one ridge IRLS step
through the truncated design). Each iteration is traced on the marginal log
posterior of (beta, sigma^2), the objective the ECM ascends. The filter loop
repeatedly removes the markers with the lowest <theta_j> and refits until
predictions degrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spatialboost._special import expit
from spatialboost.errors import ConfigurationError
from spatialboost.linalg import (
    MARKER_BLOCK,
    TruncatedDesign,
    check_rank_tol,
    truncate_design,
    weighted_woodbury,
)

EM_TOL = 1e-6  # convergence threshold on max|delta beta|
EM_MAX_ITER = 200
ASCENT_SLACK = 1e-6  # marginal log posterior drop beyond this flags divergence
STOP_RESIDUAL = 0.5  # filtering stops once a fitted probability misses by more
TRACE_TOP_MARKERS = 10  # markers em_trace.tsv lists per round, by <theta_j>


@dataclass(frozen=True)
class Hyperparameters:
    """Model tuning parameters.

    kappa: spike/slab variance separation (> 1)
    nu, lam: inverse-gamma shape/scale for sigma^2
    xi0: baseline prior log-odds of association
    xi1: largest allowable gene boost on the log-odds (>= 0)
    """

    kappa: float
    nu: float
    lam: float
    xi0: float
    xi1: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.kappa <= 1:
            raise ConfigurationError(f"kappa must be > 1, got {self.kappa}")
        if self.nu <= 0 or self.lam <= 0:
            raise ConfigurationError("nu and lambda must be positive")
        if self.xi1 < 0:
            raise ConfigurationError(f"xi1 must be >= 0, got {self.xi1}")


@dataclass
class EmState:
    """ECM iterate: beta (index 0 = intercept), sigma^2, <theta> (with
    <theta_0> = 1), the linear predictor eta = X beta, iteration count, the
    marginal log posterior after each iteration and status flags."""

    beta: np.ndarray
    sigma2: float
    etheta: np.ndarray
    eta: np.ndarray
    iterations: int = 0
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = False
    diverged: bool = False


def _marker_boosts(boosts: np.ndarray, p: int) -> np.ndarray:
    values = np.asarray(boosts, dtype=float)
    if values.shape != (p,):
        raise ConfigurationError(f"expected {p} marker boosts, got {values.shape}")
    return values


def e_step(
    beta: np.ndarray, sigma2: float, boosts: np.ndarray, hyper: Hyperparameters
) -> np.ndarray:
    """Conditional inclusion probabilities <theta_j>; the intercept is pinned
    at 1. On the logit scale, for markers j >= 1:

        -log(kappa)/2 - beta_j^2/(2 sigma^2) (1/kappa - 1) + xi0 + xi1 b_j
    """
    if sigma2 <= 0:
        raise ConfigurationError("sigma2 must be positive")
    beta = np.asarray(beta, dtype=float)
    b = _marker_boosts(boosts, beta.size - 1)
    logits = (
        -0.5 * np.log(hyper.kappa)
        - (beta[1:] ** 2 / (2.0 * sigma2)) * (1.0 / hyper.kappa - 1.0)
        + hyper.xi0
        + hyper.xi1 * b
    )
    etheta = np.empty_like(beta)
    etheta[0] = 1.0
    etheta[1:] = expit(logits)
    return etheta


def prior_scale(etheta: np.ndarray, kappa: float) -> np.ndarray:
    """theta_j/kappa + 1 - theta_j, the inverse relative slab variance."""
    return etheta / kappa + 1.0 - etheta


def sigma2_posterior_params(
    theta: np.ndarray, beta: np.ndarray, hyper: Hyperparameters
) -> tuple[float, float]:
    """Shape and scale of the conjugate inverse-gamma conditional of sigma^2."""
    beta = np.asarray(beta, dtype=float)
    shape = hyper.nu + beta.size / 2.0
    scale = hyper.lam + 0.5 * float(
        np.sum(beta**2 * prior_scale(np.asarray(theta, float), hyper.kappa))
    )
    return shape, scale


def cm_sigma(beta: np.ndarray, etheta: np.ndarray, hyper: Hyperparameters) -> float:
    """Conditional mode scale/(shape+1) of sigma^2 given beta and <theta>."""
    shape, scale = sigma2_posterior_params(etheta, beta, hyper)
    return scale / (shape + 1.0)


def em_prior_covariance(
    etheta: np.ndarray, sigma2: float, kappa: float
) -> np.ndarray:
    """Diagonal of the expected prior covariance on beta."""
    return sigma2 / prior_scale(etheta, kappa)


def cm_beta(
    design: TruncatedDesign,
    y: np.ndarray,
    eta: np.ndarray,
    beta: np.ndarray,
    etheta: np.ndarray,
    sigma2: float,
    hyper: Hyperparameters,
) -> np.ndarray:
    """One ridge IRLS step from beta, with eta = X beta its linear predictor:

        beta+ = (X'WX + Sigma^-1)^-1 (X'WX beta + X'(y - mu))

    with mu = logit^-1(eta), W = diag(mu (1 - mu)), everything routed through
    the truncated factors and the design's Woodbury solver: X'WX beta is
    taken as S'(S beta), so S is never formed.
    """
    mu = expit(eta)
    W = mu * (1.0 - mu)
    sigma = em_prior_covariance(etheta, sigma2, hyper.kappa)
    solver = weighted_woodbury(design, W, sigma)
    rhs = solver.left_t(solver.left(beta)) + design.rmatvec(y - mu)
    return solver.solve(rhs)


def marginal_log_posterior(
    y: np.ndarray,
    eta: np.ndarray,
    beta: np.ndarray,
    sigma2: float,
    boosts: np.ndarray,
    hyper: Hyperparameters,
) -> float:
    """Log posterior of (beta, sigma^2) with the inclusion indicators summed
    out, up to a constant, given eta = X beta: the objective the ECM
    iteration ascends, which em_fit traces."""
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    b = _marker_boosts(boosts, beta.size - 1)
    ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    # intercept is slab-only
    out = ll - 0.5 * np.log(sigma2 * hyper.kappa) - beta[0] ** 2 / (
        2.0 * sigma2 * hyper.kappa
    )
    prior_logit = hyper.xi0 + hyper.xi1 * b
    log_p1 = -np.logaddexp(0.0, -prior_logit)
    log_p0 = -np.logaddexp(0.0, prior_logit)
    slab = (
        -0.5 * np.log(sigma2 * hyper.kappa)
        - beta[1:] ** 2 / (2.0 * sigma2 * hyper.kappa)
        + log_p1
    )
    spike = -0.5 * np.log(sigma2) - beta[1:] ** 2 / (2.0 * sigma2) + log_p0
    out += float(np.sum(np.logaddexp(slab, spike)))
    return out - (hyper.nu + 1.0) * np.log(sigma2) - hyper.lam / sigma2


def em_fit(
    design: TruncatedDesign,
    y: np.ndarray,
    boosts: np.ndarray,
    hyper: Hyperparameters,
    beta0: np.ndarray | None = None,
) -> EmState:
    """Alternate E-step / CM-sigma / CM-beta until max|delta beta| < EM_TOL,
    for at most EM_MAX_ITER iterations.

    Each iteration evaluates the marginal log posterior at the new
    (beta, sigma^2); a fall of more than ASCENT_SLACK from the previous
    iteration's value flags the state as diverged. The state is still
    returned, with the eta of its beta that the last iteration computed.
    """
    y = np.asarray(y, dtype=float)
    beta = np.zeros(design.p1) if beta0 is None else np.asarray(beta0, float).copy()
    sigma2 = hyper.lam / (hyper.nu + 1.0)  # prior mode
    eta = design.matvec(beta)
    trace: list[float] = []
    converged = diverged = False
    for it in range(1, EM_MAX_ITER + 1):
        etheta = e_step(beta, sigma2, boosts, hyper)
        sigma2 = cm_sigma(beta, etheta, hyper)
        beta_new = cm_beta(design, y, eta, beta, etheta, sigma2, hyper)
        eta = design.matvec(beta_new)
        trace.append(marginal_log_posterior(y, eta, beta_new, sigma2, boosts, hyper))
        diverged = diverged or (it > 1 and trace[-1] < trace[-2] - ASCENT_SLACK)
        converged = float(np.max(np.abs(beta_new - beta))) < EM_TOL
        beta = beta_new
        if converged:
            break
    return EmState(beta, sigma2, etheta, eta, it, trace, converged, diverged)


def max_residual(y: np.ndarray, yhat: np.ndarray) -> float:
    """Largest |y_i - yhat_i| over the fitted probabilities yhat."""
    return float(np.max(np.abs(y - yhat)))


def ppl(y: np.ndarray, yhat: np.ndarray) -> float:
    """Posterior predictive loss of the fitted probabilities yhat: squared
    error plus predictive variance."""
    return float(np.sum((y - yhat) ** 2 + yhat * (1.0 - yhat)))


def filter_round(state: EmState, k: int) -> np.ndarray:
    """Local indices (0-based, markers only) retained after removing the k
    markers with the lowest <theta_j>. Ties are broken by removing the lower
    index first; the intercept never leaves."""
    order = np.argsort(state.etheta[1:], kind="stable")
    return np.sort(order[k:])


@dataclass
class FilterRound:
    """One EM filter round: the markers fit, the fit, and its diagnostics."""

    retained: np.ndarray  # original marker indices fit in this round
    state: EmState
    ppl: float
    max_residual: float
    rank: int  # of the round's truncated design
    residual_energy: float  # relative energy the truncation dropped


@dataclass
class FilterTrace:
    """One EM filter run: every round and why filtering stopped, and what the
    stages after it read, the final survivors and their factored design.
    Round r's survivors are round r + 1's ``retained``."""

    initial: np.ndarray  # original marker indices the first round fits
    final_survivors: np.ndarray  # original marker indices that survive
    design: TruncatedDesign | None  # final survivors' factors; gibbs drops them
    rounds: list[FilterRound]
    stop_reason: str  # "rounds", "residual" or "floor"

    @property
    def survivor_etheta(self) -> np.ndarray | None:
        """The last round's <theta_j> of the final survivors, a subset of
        the columns it fitted; None when no round ran."""
        if not self.rounds:
            return None
        last = self.rounds[-1]
        columns = np.searchsorted(last.retained, self.final_survivors)
        return last.state.etheta[1 + columns]

    def to_tsv(self, snp_ids: list[str]) -> str:
        """Per-round summary: round, retained count, ppl, max residual, the
        TRACE_TOP_MARKERS markers of highest <theta_j>, the EM fit's
        iterations and flags, on the last round why filtering stopped (NA
        before), and the rank and relative residual energy of the round's
        truncated design."""
        lines = [
            "round\tretained\tppl\tmax_residual\ttop_markers"
            "\titerations\tconverged\tdiverged\tstop_reason"
            "\trank\tresidual_energy"
        ]
        for r, rec in enumerate(self.rounds):
            st, et = rec.state, rec.state.etheta[1:]
            order = np.argsort(-et, kind="stable")[:TRACE_TOP_MARKERS]
            tops = [f"{snp_ids[rec.retained[loc]]}={et[loc]:.6g}" for loc in order]
            stop = self.stop_reason if r == len(self.rounds) - 1 else "NA"
            lines.append(
                f"{r}\t{rec.retained.size}\t{rec.ppl:.10g}"
                f"\t{rec.max_residual:.10g}\t{','.join(tops)}"
                f"\t{st.iterations}\t{int(st.converged)}\t{int(st.diverged)}"
                f"\t{stop}\t{rec.rank}\t{rec.residual_energy:.10g}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FilterConfig:
    """EM filter settings; also the rank rule of every design factored."""

    max_rounds: int = 5  # 0 runs no round: every marker survives
    fraction: float = 0.25
    rank_tol: float = 0.01
    rank: int | None = None  # explicit rank overrides rank_tol

    def __post_init__(self):
        if self.max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0, got {self.max_rounds}")
        if not 0 < self.fraction < 1:
            raise ConfigurationError(f"fraction must be in (0,1), got {self.fraction}")
        if self.rank is not None and self.rank < 1:
            raise ConfigurationError(f"rank must be >= 1, got {self.rank}")
        check_rank_tol(self.rank_tol)

    def factor(self, X_markers: np.ndarray, columns: np.ndarray) -> TruncatedDesign:
        """Truncated factors of the intercept plus the given marker columns,
        at the explicit rank (capped by the design's size and its numerical
        rank) or by rank_tol. This is the one place the design, intercept
        first, is built. It is built as X' ((p+1) x n) in the markers'
        dtype, MARKER_BLOCK marker columns at a time, and handed over to the
        factorization. For the loader's int8 genotypes no float design is
        built in sample space: the design keeps the int8 X' and reads it
        MARKER_BLOCK rows at a time, as every pass over it does. Rank space
        casts X' to float64 once, and a tall design at full rank keeps that
        float X' as its U'."""
        Xt = np.empty((len(columns) + 1, X_markers.shape[0]), dtype=X_markers.dtype)
        Xt[0] = 1
        for a in range(0, len(columns), MARKER_BLOCK):  # no copy of every column
            Xt[1 + a:1 + a + MARKER_BLOCK] = X_markers[:, columns[a:a + MARKER_BLOCK]].T
        l = None if self.rank is None else min(self.rank, min(Xt.shape))
        return truncate_design(Xt.T, l, self.rank_tol)


def em_filter_pipeline(
    X_markers: np.ndarray,
    y: np.ndarray,
    boosts: np.ndarray,
    hyper: Hyperparameters,
    config: FilterConfig,
) -> FilterTrace:
    """Iterate em_fit -> record PPL -> filter lowest-<theta> markers.

    Stops on the residual rule, on round exhaustion, or when another removal
    would fall below the marker floor max(10, n // 10), a rule with no config
    key (a new floor rule needs one, for the manifest to record it);
    ``trace.stop_reason`` says which.
    Boosts are subset (never re-normalized) and beta is warm-started by
    restriction to the surviving coordinates. The design is re-factored per
    round since filtering changes columns, and only one is held at a time.
    The returned trace carries the final survivors' design: the last
    round's when it removed none, else the survivors are factored once more
    (after a removal in the last of ``config.max_rounds`` rounds, or when
    that is 0 and no round runs).
    """
    y = np.asarray(y, dtype=float)
    n, p = X_markers.shape
    b_all = _marker_boosts(boosts, p)
    floor = max(10, n // 10)

    current = np.arange(p)
    rounds: list[FilterRound] = []
    stop_reason = "rounds"
    beta_warm: np.ndarray | None = None
    for _ in range(config.max_rounds):
        design = config.factor(X_markers, current)
        state = em_fit(design, y, b_all[current], hyper, beta0=beta_warm)
        yhat = expit(state.eta)
        rounds.append(FilterRound(
            retained=current,
            state=state,
            ppl=ppl(y, yhat),
            max_residual=max_residual(y, yhat),
            rank=design.rank,
            residual_energy=design.relative_residual_energy,
        ))
        if rounds[-1].max_residual > STOP_RESIDUAL:
            stop_reason = "residual"
            break
        k = int(np.floor(config.fraction * current.size))
        if k < 1 or current.size - k < floor:
            stop_reason = "floor"
            break
        keep_local = filter_round(state, k)
        beta_warm = np.concatenate([state.beta[:1], state.beta[1:][keep_local]])
        current = current[keep_local]
        del design  # one design at a time: free it before the next is factored
    else:  # the last round removed markers, or no round ran
        design = config.factor(X_markers, current)
    return FilterTrace(np.arange(p), current, design, rounds, stop_reason)


def em_ranking_scores(trace: FilterTrace, p: int) -> np.ndarray:
    """Per-marker ranking statistic from a filter trace.

    A marker removed in round r scores r + <theta_j> at removal time; final
    survivors score (last round) + final <theta_j>, so survival depth
    dominates and <theta> breaks ties within a round.
    """
    scores = np.full(p, -1.0)
    for r, rec in enumerate(trace.rounds):
        scores[rec.retained] = r + rec.state.etheta[1:]
    return scores

