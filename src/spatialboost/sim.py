"""Generative simulator, single-SNP baseline, and ROC/AUC scoring.

Data are generated from the model hierarchy itself: inclusion indicators
from the boosted Bernoulli prior, effects from the spike-and-slab normal,
responses from the logistic likelihood. The baseline fits one univariate
logistic regression per marker and reports Wald p-values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spatialboost._special import expit, ndtr
from spatialboost.em import Hyperparameters, em_filter_pipeline, em_ranking_scores
from spatialboost.errors import ConfigurationError, NumericalError
from spatialboost.genome import (
    DEFAULT_PHI,
    Gene,
    SnpLocus,
    build_blocks,
    compute_boosts,
)
from spatialboost.pipeline import RunConfig, sample_survivors

SIGMA2 = 0.01  # true sigma^2 of simulated effects
LD_RHO = 0.3  # adjacent-marker latent correlation of simulated genotypes
GENOTYPE_BLOCK = 256  # columns thresholded per ndtr call; bounds its temporaries
LATENT_BLOCK = 1 << 21  # latent normals drawn at a time (16 MiB), in whole rows
NEWTON_STEPS = 60  # most Newton steps a single-SNP fit takes


@dataclass
class SimulatedDataset:
    genotypes: np.ndarray  # n x p markers in {0,1,2}, no intercept
    theta: np.ndarray  # true inclusion indicators, length p
    beta: np.ndarray  # true effects incl. intercept, length p+1
    y: np.ndarray


def simulate(
    genotypes: np.ndarray,
    boosts: np.ndarray,
    hyper: Hyperparameters,
    sigma2_true: float,
    rng: np.random.Generator,
) -> SimulatedDataset:
    """Draw (theta, beta, y) from the model hierarchy over fixed genotypes."""
    G = np.asarray(genotypes)
    n, p = G.shape
    b = np.asarray(boosts, dtype=float)
    if b.shape != (p,):
        raise ConfigurationError(f"boosts ({b.shape}) misaligned with p={p}")
    if not sigma2_true > 0:
        raise ConfigurationError(f"sigma2 must be positive, got {sigma2_true}")
    if not np.isfinite(sigma2_true):
        raise ConfigurationError(f"sigma2 must be finite, got {sigma2_true}")

    theta = (rng.random(p) < expit(hyper.xi0 + hyper.xi1 * b)).astype(np.int8)
    beta = np.empty(p + 1)
    beta[0] = rng.normal(0.0, np.sqrt(sigma2_true * hyper.kappa))
    sd = np.sqrt(sigma2_true * (theta * hyper.kappa + 1.0 - theta))
    beta[1:] = rng.normal(0.0, 1.0, size=p) * sd
    eta = beta[0] + G.astype(float) @ beta[1:]
    y = (rng.random(n) < expit(eta)).astype(np.int8)
    return SimulatedDataset(G, theta, beta, y)


def synthetic_genotypes(
    n: int,
    p: int,
    rng: np.random.Generator,
    ld_rho: float = 0.0,
) -> np.ndarray:
    """int8 Binomial(2, maf) genotypes with maf ~ Uniform(0.05, 0.5).

    ``ld_rho`` > 0 correlates adjacent markers through a latent AR(1)
    Gaussian copula per allele, mimicking linkage disequilibrium.
    Each allele's n x p latent normals are drawn in blocks of whole rows,
    at most LATENT_BLOCK entries (one row when p is larger): a Generator
    fills an array in C order, so the blocks hold the numbers one n x p
    draw would, and the AR(1) recursion runs along each row, so the
    genotypes do not depend on the block size.
    """
    if not 0 <= ld_rho < 1:
        raise ConfigurationError(f"ld_rho must be in [0, 1), got {ld_rho}")
    mafs = rng.uniform(0.05, 0.5, size=p)
    alleles = np.zeros((n, p), dtype=np.int8)
    step = max(1, LATENT_BLOCK // max(p, 1))
    for _ in range(2):
        for a in range(0, n, step):
            z = rng.standard_normal((min(step, n - a), p))
            if ld_rho > 0:
                for j in range(1, p):
                    z[:, j] = ld_rho * z[:, j - 1] + np.sqrt(1 - ld_rho**2) * z[:, j]
            for j in range(0, p, GENOTYPE_BLOCK):
                cols = slice(j, j + GENOTYPE_BLOCK)
                alleles[a:a + step, cols] += ndtr(z[:, cols]) < mafs[cols]
    return alleles


@dataclass
class SingleSnpResult:
    pvalues: np.ndarray  # NaN where undefined
    beta: np.ndarray
    converged: np.ndarray
    reasons: dict[int, str] = field(default_factory=dict)

    def scores(self) -> np.ndarray:
        """-log10 p ranking statistic; untestable markers rank lowest."""
        with np.errstate(divide="ignore"):
            s = -np.log10(np.clip(self.pvalues, 1e-300, None))
        s[np.isnan(self.pvalues)] = -np.inf
        return s


def single_snp_tests(genotypes: np.ndarray, y: np.ndarray) -> SingleSnpResult:
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
    # each pass takes the Fisher information; the last keeps it for the SEs
    for it in range(NEWTON_STEPS + 1):
        eta = a[None, :] + X * b[None, :]
        mu = expit(eta)
        w = np.clip(mu * (1.0 - mu), 1e-12, None)
        faa = w.sum(axis=0)
        fab = (w * X).sum(axis=0)
        fbb = (w * X * X).sum(axis=0)
        det = np.clip(faa * fbb - fab * fab, 1e-30, None)
        if it == NEWTON_STEPS or not active.any():
            break
        r = y[:, None] - mu
        ga = r.sum(axis=0)
        gb = (X * r).sum(axis=0)
        da = (fbb * ga - fab * gb) / det
        db = (faa * gb - fab * ga) / det
        a = np.where(active, a + np.clip(da, -5, 5), a)
        b = np.where(active, b + np.clip(db, -5, 5), b)
        done = active & (np.maximum(np.abs(da), np.abs(db)) < 1e-10)
        converged |= done
        active &= ~done

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


def roc_auc(scores: np.ndarray, truth: np.ndarray) -> RocCurve:
    """ROC via threshold sweep; AUC via pairwise concordance with ties 1/2.

    Grouping tied scores makes the trapezoidal integral equal the
    Mann-Whitney statistic U / (n1 n0), summed in the curve's integer counts
    as 2U, so the AUC is one division 2U / (2 n1 n0).
    """
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth).astype(bool)
    n1 = int(truth.sum())
    n0 = truth.size - n1
    if n1 == 0 or n0 == 0:
        raise ConfigurationError("truth must contain both classes")

    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    t_sorted = truth[order]
    # the last index of each tie group; != also ties equal infinite scores
    cut = np.r_[np.flatnonzero(s_sorted[1:] != s_sorted[:-1]), truth.size - 1]
    tp = np.r_[0, np.cumsum(t_sorted)[cut]]
    fp = np.r_[0, np.cumsum(~t_sorted)[cut]]
    two_u = int(np.sum(np.diff(fp) * (tp[1:] + tp[:-1])))
    points = np.column_stack([fp / n0, tp / n1])
    return RocCurve(points=points, auc=two_u / (2 * n1 * n0))


def synthetic_genome(
    p: int, rng: np.random.Generator, phi: float
) -> tuple[list[SnpLocus], list[Gene], np.ndarray]:
    """Random marker positions 750-2250 bp apart plus genes covering part of
    the span, with non-informative relevances; boosts computed at phi."""
    gaps = rng.uniform(750.0, 2250.0, size=p)
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


def draw_dataset(
    config: RunConfig,
    n: int,
    p: int,
    rng: np.random.Generator,
    sigma2: float = SIGMA2,
    ld_rho: float = LD_RHO,
) -> tuple[list[SnpLocus], list[Gene], np.ndarray, SimulatedDataset]:
    """One synthetic dataset: a genome with boosts at ``config.phi``
    (DEFAULT_PHI when unset), genotypes with LD, and (theta, beta, y) drawn
    from the ``config.em`` prior at the given true sigma^2."""
    for name, size in (("n", n), ("p", p)):
        if size < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {size}")
    snps, genes, boosts = synthetic_genome(p, rng, config.phi or DEFAULT_PHI)
    X = synthetic_genotypes(n, p, rng, ld_rho=ld_rho)
    return snps, genes, boosts, simulate(X, boosts, config.em, sigma2, rng)


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
    config: RunConfig,
    n: int,
    p: int,
    seeds: list[int],
    gibbs_ranking: bool = False,
) -> StudyResult:
    """One dataset per seed, drawn as ``draw_dataset`` draws it; fit the
    boosted model with the settings the em-filter and gibbs stages read from
    ``config`` (the Gibbs chain on the EM survivors runs only for
    ``gibbs_ranking``) and the single-SNP baseline, and score both by AUC
    against the true indicators. Failed datasets (a degenerate truth, or a
    fit that raises NumericalError) are recorded, never silently dropped."""
    rows: list[StudyRow] = []
    for d, seed in enumerate(seeds):
        _, _, boosts, data = draw_dataset(config, n, p, np.random.default_rng(seed))
        X = data.genotypes
        n_assoc = int(data.theta.sum())
        nan = np.nan
        if n_assoc == 0 or n_assoc == p:
            rows.append(StudyRow(d, seed, nan, nan, nan, nan, n_assoc,
                                 failed="degenerate truth"))
            continue

        try:
            trace = em_filter_pipeline(X, data.y, boosts, config.em, config.filtering)
            sb_scores = em_ranking_scores(trace, p)
            if gibbs_ranking:  # survivors rank above the rest, by pi_hat
                chain = sample_survivors(config, data.y, boosts, trace, seed)
                top = sb_scores.max() + 1.0
                sb_scores[trace.final_survivors] = top + chain.pi_hat[1:]
        except NumericalError as exc:
            rows.append(StudyRow(d, seed, nan, nan, nan, nan, n_assoc,
                                 failed=f"fit failed: {exc}"))
            continue

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
