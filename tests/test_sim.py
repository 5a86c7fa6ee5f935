import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import kstest, rankdata

from spatialboost import sim
from spatialboost._special import ndtr
from spatialboost.em import (
    FilterConfig,
    Hyperparameters,
    em_filter_pipeline,
    em_ranking_scores,
)
from spatialboost.errors import ConfigurationError
from spatialboost.pipeline import RunConfig, sample_survivors
from spatialboost.sim import (
    GENOTYPE_BLOCK,
    draw_dataset,
    roc_auc,
    simulate,
    single_snp_tests,
    study_harness,
    synthetic_genome,
    synthetic_genotypes,
)

SIM_HYPER = Hyperparameters(
    kappa=1000.0, nu=3.0, lam=0.02, xi0=-4.0, xi1=2.0
)


def test_simulate_deterministic():
    X = synthetic_genotypes(20, 10, np.random.default_rng(1))
    b = np.random.default_rng(2).uniform(0, 1, 10)
    d1 = simulate(X, b, SIM_HYPER, 0.01, np.random.default_rng(3))
    d2 = simulate(X, b, SIM_HYPER, 0.01, np.random.default_rng(3))
    assert np.array_equal(d1.theta, d2.theta)
    assert np.array_equal(d1.beta, d2.beta)
    assert np.array_equal(d1.y, d2.y)


def test_simulate_prior_saturation(rng):
    hyper = Hyperparameters(kappa=1000.0, nu=3.0, lam=0.02, xi0=-50.0, xi1=0.0)
    p = 10_000
    X = np.zeros((2, p))
    sigma2 = 0.04
    data = simulate(X, np.zeros(p), hyper, sigma2, rng)
    assert data.theta.sum() == 0
    assert data.beta[1:].std() == pytest.approx(np.sqrt(sigma2), rel=0.05)


def test_simulate_theta_rate_matches_prior(rng):
    hyper = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-2.0, xi1=1.5)
    p = 100_000
    boost = 0.7
    X = np.zeros((2, p))
    data = simulate(X, np.full(p, boost), hyper, 0.01, rng)
    expected = expit(hyper.xi0 + hyper.xi1 * boost)
    assert data.theta.mean() == pytest.approx(expected, abs=0.01 * max(expected, 0.01) + 0.003)


def test_simulate_variance_separation(rng):
    hyper = Hyperparameters(kappa=50.0, nu=3.0, lam=0.02, xi0=0.0, xi1=0.0)
    p = 200_000
    X = np.zeros((2, p))
    data = simulate(X, np.zeros(p), hyper, 0.01, rng)
    v1 = data.beta[1:][data.theta == 1].var()
    v0 = data.beta[1:][data.theta == 0].var()
    assert v1 / v0 == pytest.approx(hyper.kappa, rel=0.1)


def test_simulate_misaligned_boosts(rng):
    with pytest.raises(ConfigurationError):
        simulate(np.zeros((3, 4)), np.zeros(5), SIM_HYPER, 0.01, rng)


def test_synthetic_genotypes_support_and_ld(rng):
    X = synthetic_genotypes(500, 40, rng, ld_rho=0.6)
    assert set(np.unique(X)) <= {0.0, 1.0, 2.0}
    corr = np.array(
        [np.corrcoef(X[:, j], X[:, j + 1])[0, 1] for j in range(39)]
    )
    assert corr.mean() > 0.15
    with pytest.raises(ConfigurationError):
        synthetic_genotypes(10, 5, rng, ld_rho=1.0)


def _whole_matrix_genotypes(n, p, seed, ld_rho):
    # each allele's latent normals drawn and thresholded as one n x p array
    rng = np.random.default_rng(seed)
    mafs = rng.uniform(0.05, 0.5, size=p)
    want = np.zeros((n, p), dtype=np.int8)
    for _ in range(2):
        z = rng.standard_normal((n, p))
        if ld_rho > 0:
            for j in range(1, p):
                z[:, j] = ld_rho * z[:, j - 1] + np.sqrt(1 - ld_rho**2) * z[:, j]
        want += (ndtr(z) < mafs).astype(np.int8)
    return want


@pytest.mark.parametrize("ld_rho", [0.0, 0.3])
def test_synthetic_genotypes_in_column_blocks_match_whole_matrix(ld_rho):
    # p spans three column blocks, the last one partial
    n, p = 30, 2 * GENOTYPE_BLOCK + 77
    got = synthetic_genotypes(n, p, np.random.default_rng(8), ld_rho)
    assert got.dtype == np.int8
    assert np.array_equal(got, _whole_matrix_genotypes(n, p, 8, ld_rho))


@pytest.mark.parametrize("ld_rho", [0.0, 0.3])
@pytest.mark.parametrize("rows", [7, 1, 0])
def test_synthetic_genotypes_in_row_blocks_match_whole_matrix(monkeypatch, ld_rho, rows):
    # the latent normals drawn 7 rows at a time (the last block partial),
    # one row at a time, and one row when a row is larger than a block
    n, p = 30, GENOTYPE_BLOCK + 77
    monkeypatch.setattr(sim, "LATENT_BLOCK", rows * p if rows else p // 2)
    got = synthetic_genotypes(n, p, np.random.default_rng(9), ld_rho)
    assert np.array_equal(got, _whole_matrix_genotypes(n, p, 9, ld_rho))


def test_synthetic_genotypes_hold_one_block_of_latent_normals(monkeypatch):
    # 20 rows of 600 normals at a time: beside the int8 matrix the draw
    # allocates one 96 KB block and the thresholding's temporaries, less
    # than half of one n x p float array (1.9 MB), where the whole-matrix
    # draw held one per allele
    n, p = 400, 600
    monkeypatch.setattr(sim, "LATENT_BLOCK", 20 * p)
    tracemalloc.start()
    try:
        G = synthetic_genotypes(n, p, np.random.default_rng(3), ld_rho=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < G.nbytes + n * p * 8 / 2, peak


def test_single_snp_null_pvalues_uniform():
    rng = np.random.default_rng(4)
    X = synthetic_genotypes(400, 500, rng)
    y = rng.integers(0, 2, 400).astype(float)
    res = single_snp_tests(X, y)
    pv = res.pvalues[~np.isnan(res.pvalues)]
    assert pv.size == 500
    assert kstest(pv, "uniform").pvalue > 0.01


def test_single_snp_separated_marker():
    n = 60
    x = np.concatenate([np.zeros(30), np.full(30, 2.0)])
    y = (x > 0).astype(float)
    X = np.column_stack([x, np.ones(n) * 0.0])
    res = single_snp_tests(X, y)
    assert res.pvalues[0] < 1e-6 or 0 in res.reasons


def test_single_snp_constant_column_flagged(rng):
    X = np.column_stack([np.full(30, 2.0), rng.integers(0, 3, 30).astype(float)])
    y = rng.integers(0, 2, 30).astype(float)
    res = single_snp_tests(X, y)
    assert np.isnan(res.pvalues[0])
    assert "constant" in res.reasons[0]
    assert res.scores()[0] == -np.inf


@pytest.mark.parametrize("levels", [1, 2, 3, 7, 1000])
def test_average_ranks_match_rankdata_with_heavy_ties(levels):
    rng = np.random.default_rng(levels)
    for n in (1, 2, 9, 500):
        scores = rng.integers(0, levels, n) / 7.0
        truth = np.arange(n) % 3 == 0
        if 0 < truth.sum() < n:
            n1, n0 = truth.sum(), n - truth.sum()
            want = (rankdata(scores)[truth].sum() - n1 * (n1 + 1) / 2) / (n1 * n0)
            assert roc_auc(scores, truth).auc == want


def test_roc_auc_hand_examples():
    assert roc_auc(np.array([0.9, 0.8, 0.3]), np.array([1, 0, 0])).auc == 1.0
    assert roc_auc(np.array([0.9, 0.8, 0.3]), np.array([0, 1, 0])).auc == 0.5
    assert roc_auc(np.ones(6), np.array([1, 0, 1, 0, 1, 0])).auc == 0.5


def test_roc_curve_endpoints_and_monotonicity(rng):
    scores = rng.standard_normal(50)
    truth = rng.integers(0, 2, 50)
    truth[0], truth[1] = 1, 0
    curve = roc_auc(scores, truth)
    assert tuple(curve.points[0]) == (0.0, 0.0)
    assert tuple(curve.points[-1]) == (1.0, 1.0)
    assert np.all(np.diff(curve.points[:, 0]) >= 0)
    assert np.all(np.diff(curve.points[:, 1]) >= 0)


def test_roc_trapezoid_equals_mann_whitney(rng):
    scores = rng.integers(0, 5, 60).astype(float)  # heavy ties
    truth = rng.integers(0, 2, 60)
    truth[:2] = [0, 1]
    curve = roc_auc(scores, truth)
    trap = np.trapezoid(curve.points[:, 1], curve.points[:, 0])
    assert trap == pytest.approx(curve.auc, abs=1e-10)


def test_roc_rank_invariance_and_flip(rng):
    scores = rng.standard_normal(40)
    truth = rng.integers(0, 2, 40)
    truth[:2] = [0, 1]
    base = roc_auc(scores, truth).auc
    assert roc_auc(np.exp(scores), truth).auc == pytest.approx(base)
    assert roc_auc(-scores, truth).auc == pytest.approx(1.0 - base)


def test_roc_degenerate_truth_errors():
    with pytest.raises(ConfigurationError):
        roc_auc(np.array([1.0, 2.0]), np.array([1, 1]))


def test_tpr_at_fpr():
    curve = roc_auc(np.array([4.0, 3.0, 2.0, 1.0]), np.array([1, 0, 1, 0]))
    assert curve.tpr_at_fpr(0.0) == pytest.approx(0.5)
    assert curve.tpr_at_fpr(0.5) == pytest.approx(1.0)


def test_synthetic_genome_layout(rng):
    snps, genes, boosts = synthetic_genome(50, rng, 1.5e4)
    positions = [s.position for s in snps]
    assert np.all(np.diff(positions) > 0)
    assert len(boosts) == 50
    assert len(genes) >= 3


def test_study_harness_single_dataset():
    cfg = RunConfig(
        filtering=FilterConfig(max_rounds=2), gibbs_iters=60, gibbs_burnin=20
    )
    result = study_harness(cfg, 50, 40, [1])
    assert len(result.rows) == 1
    row = result.rows[0]
    assert result.median_auc_sb == pytest.approx(row.auc_sb)
    assert result.median_auc_ss == pytest.approx(row.auc_ss)
    text = result.to_tsv()
    assert text.startswith("dataset\tseed")
    assert text.strip().split("\n")[-1].startswith("median")


def test_study_records_a_diverged_fit_as_failed():
    # at em.lam = 50 and em.xi0 = 1, beta diverges on the separable dataset
    # of seed 2 and sigma^2 becomes infinite: that dataset is recorded as
    # failed, and the study goes on over the others
    cfg = RunConfig(filtering=FilterConfig(max_rounds=2), gibbs_iters=60)
    cfg = replace(cfg, em=replace(cfg.em, lam=50.0, xi0=1.0))
    with np.errstate(all="ignore"):
        result = study_harness(cfg, 60, 40, [0, 1, 2], gibbs_ranking=True)
        with pytest.raises(ConfigurationError, match="^all datasets failed$"):
            study_harness(cfg, 60, 40, [2], gibbs_ranking=True)
    status = [r.failed or "ok" for r in result.rows]
    assert status == ["ok", "ok",
                      "fit failed: prior covariance entries must be finite"]
    assert np.isnan(result.rows[2].auc_sb)
    ok = [r.auc_sb for r in result.rows[:2]]
    assert result.median_auc_sb == float(np.median(ok))
    rows = result.to_tsv().splitlines()
    assert rows[3].split("\t")[-1] == status[2]


def test_study_gibbs_ranking_samples_through_the_stage_chain(monkeypatch):
    # with gibbs_ranking the survivors score above every removed marker, in
    # the order of the pi_hat of sample_survivors (the gibbs stage's chain)
    # seeded with the dataset seed
    cfg = RunConfig(
        filtering=FilterConfig(max_rounds=2), gibbs_iters=40, gibbs_burnin=10
    )
    n, p, seed = 50, 40, 3
    _, _, boosts, data = draw_dataset(cfg, n, p, np.random.default_rng(seed))
    trace = em_filter_pipeline(data.genotypes, data.y, boosts, cfg.em, cfg.filtering)

    def scores(chain_seed):
        chain = sample_survivors(cfg, data.y, boosts, trace, chain_seed)
        out = em_ranking_scores(trace, p)
        out[trace.final_survivors] = out.max() + 1.0 + chain.pi_hat[1:]
        return out

    scored = []

    def recording_roc_auc(s, truth):
        scored.append(np.array(s))
        return roc_auc(s, truth)

    monkeypatch.setattr("spatialboost.sim.roc_auc", recording_roc_auc)
    study_harness(cfg, n, p, [seed], gibbs_ranking=True)
    want = scores(seed)
    assert scored[0].tobytes() == want.tobytes()  # then single-SNP's
    assert not np.array_equal(scores(seed + 1), want)
