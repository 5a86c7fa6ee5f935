"""Generative simulator, single-SNP baseline, and ROC/AUC scoring.

Data are generated from the model hierarchy itself: inclusion indicators
from the boosted Bernoulli prior, effects from the spike-and-slab normal,
responses from the logistic likelihood. The baseline fits one univariate
logistic regression per marker and reports Wald p-values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from spatialboost._special import expit, ndtr
from spatialboost.em import (
    FilterConfig,
    Hyperparameters,
    em_filter_pipeline,
    em_ranking_scores,
)
from spatialboost.errors import ConfigurationError
from spatialboost.genome import (
    BoostVector,
    Gene,
    SnpLocus,
    build_blocks,
    compute_boosts,
)
from spatialboost.mcmc import gibbs_run


@dataclass
class SimulatedDataset:
    genotypes: np.ndarray  # n x p marker matrix, no intercept
    theta: np.ndarray  # true inclusion indicators, length p
    beta: np.ndarray  # true effects incl. intercept, length p+1
    y: np.ndarray
    seed: int | None
    hyper: Hyperparameters
    sigma2_true: float


def simulate(
    genotypes: np.ndarray,
    boosts,
    hyper: Hyperparameters,
    sigma2_true: float,
    rng: np.random.Generator,
    seed: int | None = None,
) -> SimulatedDataset:
    """Draw (theta, beta, y) from the model hierarchy over fixed genotypes."""
    X = np.asarray(genotypes, dtype=float)
    n, p = X.shape
    b = np.asarray(getattr(boosts, "values", boosts), dtype=float)
    if b.shape != (p,):
        raise ConfigurationError(f"boosts ({b.shape}) misaligned with p={p}")

    theta = (rng.random(p) < expit(hyper.xi0 + hyper.xi1 * b)).astype(np.int8)
    beta = np.empty(p + 1)
    beta[0] = rng.normal(0.0, np.sqrt(sigma2_true * hyper.kappa))
    sd = np.sqrt(sigma2_true * (theta * hyper.kappa + 1.0 - theta))
    beta[1:] = rng.normal(0.0, 1.0, size=p) * sd
    y = (rng.random(n) < expit(beta[0] + X @ beta[1:])).astype(np.int8)
    return SimulatedDataset(X, theta, beta, y, seed, hyper, sigma2_true)


def synthetic_genotypes(
    n: int,
    p: int,
    rng: np.random.Generator,
    maf_range: tuple[float, float] = (0.05, 0.5),
    ld_rho: float = 0.0,
) -> np.ndarray:
    """Binomial(2, maf) genotypes with maf ~ Uniform(maf_range).

    ``ld_rho`` > 0 correlates adjacent markers through a latent AR(1)
    Gaussian copula per allele, mimicking linkage disequilibrium.
    """
    if not 0 <= ld_rho < 1:
        raise ConfigurationError(f"ld_rho must be in [0, 1), got {ld_rho}")
    mafs = rng.uniform(*maf_range, size=p)
    alleles = np.zeros((n, p), dtype=np.int8)
    for _ in range(2):
        z = rng.standard_normal((n, p))
        if ld_rho > 0:
            for j in range(1, p):
                z[:, j] = ld_rho * z[:, j - 1] + np.sqrt(1 - ld_rho**2) * z[:, j]
        alleles += (ndtr(z) < mafs).astype(np.int8)
    return alleles.astype(float)


@dataclass
class SingleSnpResult:
    pvalues: np.ndarray  # NaN where undefined
    beta: np.ndarray
    converged: np.ndarray
    reasons: dict[int, str] = field(default_factory=dict)

    def bonferroni_threshold(self, alpha: float = 0.05) -> float:
        tested = int(np.sum(~np.isnan(self.pvalues)))
        return alpha / max(tested, 1)

    def scores(self) -> np.ndarray:
        """-log10 p ranking statistic; untestable markers rank lowest."""
        with np.errstate(divide="ignore"):
            s = -np.log10(np.clip(self.pvalues, 1e-300, None))
        s[np.isnan(self.pvalues)] = -np.inf
        return s


def single_snp_tests(
    genotypes: np.ndarray, y: np.ndarray, max_iter: int = 60
) -> SingleSnpResult:
    """Per-marker univariate logistic regression (intercept + marker),
    Wald p-value on the marker coefficient. Newton steps are vectorized
    across markers; constant columns are marked missing."""
    X = np.asarray(genotypes, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    usable = np.std(X, axis=0) > 0
    reasons = {j: "constant genotype column" for j in np.flatnonzero(~usable)}

    a = np.zeros(p)
    b = np.zeros(p)
    converged = np.zeros(p, dtype=bool)
    active = usable.copy()
    for _ in range(max_iter):
        if not active.any():
            break
        eta = a[None, :] + X * b[None, :]
        mu = expit(eta)
        w = np.clip(mu * (1.0 - mu), 1e-12, None)
        r = y[:, None] - mu
        ga = r.sum(axis=0)
        gb = (X * r).sum(axis=0)
        faa = w.sum(axis=0)
        fab = (w * X).sum(axis=0)
        fbb = (w * X * X).sum(axis=0)
        det = np.clip(faa * fbb - fab * fab, 1e-30, None)
        da = (fbb * ga - fab * gb) / det
        db = (faa * gb - fab * ga) / det
        a = np.where(active, a + np.clip(da, -5, 5), a)
        b = np.where(active, b + np.clip(db, -5, 5), b)
        done = active & (np.maximum(np.abs(da), np.abs(db)) < 1e-10)
        converged |= done
        active &= ~done

    eta = a[None, :] + X * b[None, :]
    mu = expit(eta)
    w = np.clip(mu * (1.0 - mu), 1e-12, None)
    faa = w.sum(axis=0)
    fab = (w * X).sum(axis=0)
    fbb = (w * X * X).sum(axis=0)
    det = np.clip(faa * fbb - fab * fab, 1e-30, None)
    se = np.sqrt(faa / det)
    pvalues = 2.0 * ndtr(-np.abs(b) / se)
    pvalues[~usable] = np.nan
    for j in np.flatnonzero(usable & ~converged):
        reasons[j] = "did not converge (possible separation)"
    return SingleSnpResult(pvalues, b, converged & usable, reasons)


@dataclass
class RocCurve:
    points: np.ndarray  # ordered (fpr, tpr), starts (0,0), ends (1,1)
    auc: float

    def tpr_at_fpr(self, max_fpr: float) -> float:
        ok = self.points[:, 0] <= max_fpr + 1e-12
        return float(self.points[ok, 1].max()) if ok.any() else 0.0


def average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of ``scores``, each tie group given its mean rank."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])  # group starts
    last = np.r_[first[1:], s.size]  # one past each group's end
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((first + last + 1) / 2.0, last - first)
    return ranks


def roc_auc(scores: np.ndarray, truth: np.ndarray) -> RocCurve:
    """ROC via threshold sweep; AUC via pairwise concordance with ties 1/2.

    Grouping tied scores makes the trapezoidal integral equal the
    Mann-Whitney statistic exactly.
    """
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth).astype(bool)
    n1 = int(truth.sum())
    n0 = truth.size - n1
    if n1 == 0 or n0 == 0:
        raise ConfigurationError("truth must contain both classes")

    ranks = average_ranks(scores)
    auc = (ranks[truth].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0)

    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    t_sorted = truth[order]
    boundaries = np.flatnonzero(np.diff(s_sorted) != 0)
    cut = np.concatenate([boundaries, [truth.size - 1]])
    tp = np.cumsum(t_sorted)[cut]
    fp = np.cumsum(~t_sorted)[cut]
    points = np.column_stack([fp / n0, tp / n1])
    points = np.vstack([[0.0, 0.0], points])
    return RocCurve(points=points, auc=float(auc))


@dataclass
class StudyConfig:
    """Desk-scale study settings mirroring the simulation-study recipe."""

    n: int = 100
    p: int = 200
    sigma2_true: float = 0.01
    ld_rho: float = 0.3
    phi: float = 1.5e4
    sim_hyper: Hyperparameters = Hyperparameters(
        kappa=1000.0, nu=3.0, lam=0.02, xi0=-4.0, xi1=2.0
    )
    filter_rounds: int = 4
    filter_fraction: float = 0.25
    gibbs_iters: int = 400
    gibbs_burnin: int = 100
    gibbs_kappa: float = 100.0
    gibbs_xi0: float = -3.0
    use_gibbs_ranking: bool = False
    em_max_iter: int = 120


def synthetic_genome(
    p: int, rng: np.random.Generator, phi: float, spacing: float = 1500.0
) -> tuple[list[SnpLocus], list[Gene], BoostVector]:
    """Random marker positions plus genes covering part of the span, with
    non-informative relevances; boosts computed at the given phi."""
    gaps = rng.uniform(0.5 * spacing, 1.5 * spacing, size=p)
    positions = np.cumsum(gaps).astype(int)
    snps = [SnpLocus(f"snp{j}", int(positions[j])) for j in range(p)]
    span = int(positions[-1])
    n_genes = max(3, p // 25)
    genes = []
    for g in range(n_genes):
        start = int(rng.integers(0, max(span - 20_000, 1)))
        length = int(rng.integers(5_000, 20_000))
        genes.append(Gene(f"gene{g}", start, start + length))
    blocks = build_blocks(genes, np.ones(len(genes)))
    boosts = compute_boosts(snps, blocks, phi)
    return snps, genes, boosts


@dataclass
class StudyRow:
    dataset: int
    seed: int
    auc_sb: float
    auc_ss: float
    tpr_sb: float  # at FPR <= 0.1
    tpr_ss: float
    n_associated: int
    failed: str = ""


@dataclass
class StudyResult:
    rows: list[StudyRow]
    median_auc_sb: float
    median_auc_ss: float
    median_tpr_sb: float
    median_tpr_ss: float

    def to_tsv(self) -> str:
        lines = ["dataset\tseed\tauc_sb\tauc_ss\ttpr_sb_fpr10\ttpr_ss_fpr10\tassociated\tstatus"]
        for r in self.rows:
            lines.append(
                f"{r.dataset}\t{r.seed}\t{r.auc_sb:.6g}\t{r.auc_ss:.6g}"
                f"\t{r.tpr_sb:.6g}\t{r.tpr_ss:.6g}\t{r.n_associated}"
                f"\t{r.failed or 'ok'}"
            )
        lines.append(
            f"median\t-\t{self.median_auc_sb:.6g}\t{self.median_auc_ss:.6g}"
            f"\t{self.median_tpr_sb:.6g}\t{self.median_tpr_ss:.6g}\t-\t-"
        )
        return "\n".join(lines) + "\n"


def study_harness(
    n_datasets: int,
    config: StudyConfig,
    seeds: list[int],
) -> StudyResult:
    """Simulate, fit the boosted model (EM filter + Gibbs on survivors) and
    the single-SNP baseline, and score both by AUC against the true
    indicators. Failed datasets are recorded, never silently dropped."""
    if len(seeds) < n_datasets:
        raise ConfigurationError(
            f"{n_datasets} datasets requested but only {len(seeds)} seeds given"
        )
    rows: list[StudyRow] = []
    for d in range(n_datasets):
        seed = seeds[d]
        rng = np.random.default_rng(seed)
        _, _, boosts = synthetic_genome(config.p, rng, config.phi)
        X = synthetic_genotypes(config.n, config.p, rng, ld_rho=config.ld_rho)
        data = simulate(X, boosts, config.sim_hyper, config.sigma2_true, rng, seed)
        n_assoc = int(data.theta.sum())
        if n_assoc == 0 or n_assoc == config.p:
            rows.append(
                StudyRow(d, seed, np.nan, np.nan, np.nan, np.nan, n_assoc,
                         failed="degenerate truth")
            )
            continue

        filtering = FilterConfig(
            max_rounds=config.filter_rounds,
            fraction=config.filter_fraction,
            rank=min(config.n, config.p + 1),
        )
        trace = em_filter_pipeline(
            X, data.y, boosts, config.sim_hyper, filtering,
            max_iter=config.em_max_iter,
        )
        sb_scores = em_ranking_scores(trace, config.p)

        survivors = trace.final_survivors
        gibbs_hyper = replace(
            config.sim_hyper, kappa=config.gibbs_kappa, xi0=config.gibbs_xi0
        )
        chain = gibbs_run(
            trace.survivor_design(X, filtering),
            data.y,
            boosts.values[survivors],
            gibbs_hyper,
            iters=config.gibbs_iters,
            burnin=config.gibbs_burnin,
            seed=seed,
        )
        if config.use_gibbs_ranking:
            top = sb_scores.max() + 1.0
            sb_scores = sb_scores.copy()
            sb_scores[survivors] = top + chain.pi_hat[1:]

        ss = single_snp_tests(X, data.y)
        roc_sb = roc_auc(sb_scores, data.theta)
        roc_ss = roc_auc(ss.scores(), data.theta)
        rows.append(
            StudyRow(
                d,
                seed,
                roc_sb.auc,
                roc_ss.auc,
                roc_sb.tpr_at_fpr(0.1),
                roc_ss.tpr_at_fpr(0.1),
                n_assoc,
            )
        )

    ok = [r for r in rows if not r.failed]
    if not ok:
        raise ConfigurationError("all datasets failed")
    med = lambda xs: float(np.median(xs))
    return StudyResult(
        rows=rows,
        median_auc_sb=med([r.auc_sb for r in ok]),
        median_auc_ss=med([r.auc_ss for r in ok]),
        median_tpr_sb=med([r.tpr_sb for r in ok]),
        median_tpr_ss=med([r.tpr_ss for r in ok]),
    )
