"""Acceptance suite: one test per criterion, each printing a pass/fail line."""

import filecmp
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import expit

from spatialboost.em import (
    FilterConfig,
    Hyperparameters,
    cm_beta,
    cm_sigma,
    e_step,
    marginal_log_posterior,
    ppl,
    prior_scale,
)
from spatialboost.genome import GenomicBlock, correlation_model, fit_phi, gene_weight
from spatialboost.inference import centroid, xi1_bound
from spatialboost.linalg import WoodburySolver, truncate_design
from spatialboost.mcmc import GibbsState, gibbs_cycle, sample_pg_vector
from spatialboost.pipeline import RunConfig, run_pipeline
from spatialboost.sim import study_harness
from tests.conftest import orthonormal, pg_mean, pg_var


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def test_criterion_1_gene_weight_values_and_speed():
    with criterion(1, "gene proximity weights"):
        near = GenomicBlock(980, 995, 1.0)
        far = GenomicBlock(1020, 1030, 1.0)
        assert gene_weight(1000.0, near, 10.0) == pytest.approx(0.29, abs=0.005)
        assert gene_weight(1000.0, far, 10.0) == pytest.approx(0.02, abs=0.005)
        gene_weight(1000.0, near, 10.0)  # warm-up
        best = min(
            _timed(lambda: gene_weight(1000.0, near, 10.0)) for _ in range(50)
        )
        assert best < 1e-3, f"single call took {best:.2e} s"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_xi_bound_worked_example():
    with criterion(2, "xi bounds worked example"):
        bound = xi1_bound(16.0, 1.0, 4.0, xi0=0.0)
        assert bound == pytest.approx(-6.11, abs=0.01)
        xi0 = math.log(1e-4 / (1.0 - 1e-4))
        assert xi0 == pytest.approx(-9.21, abs=0.01)
        bound = xi1_bound(16.0, 1.0, 4.0, xi0=xi0)
        assert bound >= 0  # the xi0 constraint
        assert bound == pytest.approx(3.10, abs=0.01)


def test_criterion_3_woodbury_oracle_suite():
    with criterion(3, "Woodbury vs dense inversion"):
        rng = np.random.default_rng(301)
        t0 = time.perf_counter()
        for case in range(500):
            l = int(rng.integers(1, 9))
            p1 = int(rng.integers(max(l, 2), 41))
            C = rng.standard_normal((l, l))
            V = orthonormal(p1, l, rng)
            if case % 3 == 0:  # spike/slab: sigma^2 off A, kappa sigma^2 on A
                sigma = np.full(p1, rng.uniform(0.05, 1.0))
                sigma[rng.random(p1) < 0.3] *= rng.uniform(2.0, 100.0)
            elif case % 3 == 1:  # constant: B is empty
                sigma = np.full(p1, rng.uniform(0.05, 3.0))
            else:
                sigma = rng.uniform(0.05, 3.0, p1)
            rhs = rng.standard_normal(p1)
            got = WoodburySolver(C, V, sigma).solve(rhs)
            dense = V @ C.T @ C @ V.T + np.diag(1.0 / sigma)
            expected = np.linalg.solve(dense, rhs)
            rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
            assert rel < 1e-8
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"suite took {elapsed:.1f} s"


def test_criterion_4_pg_sampler_moments():
    with criterion(4, "Polya-Gamma moments"):
        rng = np.random.default_rng(401)
        t0 = time.perf_counter()
        for z in (0.0, 0.5, 1.0, 2.0, 4.0):
            draws = sample_pg_vector(np.full(100_000, z), rng)
            assert abs(draws.mean() - pg_mean(z)) / pg_mean(z) < 0.01, f"mean at z={z}"
            assert abs(draws.var() - pg_var(z)) / pg_var(z) < 0.05, f"var at z={z}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"draws took {elapsed:.1f} s"


def test_criterion_5_geweke_joint_distribution():
    with criterion(5, "Geweke joint test"):
        t0 = time.perf_counter()
        n, p = 10, 3
        hyper = Hyperparameters(
            kappa=4.0, nu=6.0, lam=5.0, xi0=0.0, xi1=1.0
        )
        rng0 = np.random.default_rng(2024)
        X = np.column_stack(
            [np.ones(n), rng0.integers(0, 3, size=(n, p)).astype(float)]
        )
        boosts = rng0.uniform(0, 1, size=p)
        design = truncate_design(X, min(X.shape))
        N = 20_000

        def g_funcs(sigma2, theta, beta):
            ts = theta[1:].sum()
            return np.array([sigma2, sigma2**2, ts, ts**2, beta[0], beta[0] ** 2])

        def prior_draw(rng):
            sigma2 = hyper.lam / rng.gamma(hyper.nu)
            theta = np.ones(p + 1, dtype=np.int8)
            theta[1:] = rng.random(p) < expit(hyper.xi0 + hyper.xi1 * boosts)
            sd = np.sqrt(sigma2 * (theta * hyper.kappa + 1.0 - theta))
            return sigma2, theta, rng.standard_normal(p + 1) * sd

        rng_mc = np.random.default_rng(11)
        mc = np.array([g_funcs(*prior_draw(rng_mc)) for _ in range(N)])

        rng_sc = np.random.default_rng(12)
        sigma2, theta, beta = prior_draw(rng_sc)
        state = GibbsState(beta=beta, theta=theta, sigma2=sigma2)
        sc = np.empty((N, 6))
        for it in range(N):
            y = (rng_sc.random(n) < expit(design.matvec(state.beta))).astype(float)
            xty = design.rmatvec(y - 0.5)
            state = gibbs_cycle(state, design, xty, boosts, hyper, rng_sc)
            sc[it] = g_funcs(state.sigma2, state.theta, state.beta)

        se_mc = mc.std(axis=0, ddof=1) / np.sqrt(N)
        nb = 100
        m = N // nb
        batch_means = sc[: nb * m].reshape(nb, m, 6).mean(axis=1)
        se_sc = batch_means.std(axis=0, ddof=1) / np.sqrt(nb)
        z = (mc.mean(axis=0) - sc.mean(axis=0)) / np.sqrt(se_mc**2 + se_sc**2)
        assert np.all(np.abs(z) < 4.0), f"z-scores {np.round(z, 2)}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"test took {elapsed:.1f} s"


def test_criterion_6_centroid_brute_force():
    with criterion(6, "centroid vs brute force"):
        rng = np.random.default_rng(601)
        t0 = time.perf_counter()
        for _ in range(100):
            p = int(rng.integers(3, 13))
            pi = rng.uniform(0, 1, p)
            gamma = float(rng.choice([0.5, 1.0, 4.0]))
            # expected gain of delta: sum_j gamma pi_j d_j + (1-pi_j)(1-d_j)
            configs = (
                np.arange(2**p)[:, None] >> np.arange(p)[None, :]
            ) & 1
            gains = configs @ (gamma * pi) + (1 - configs) @ (1.0 - pi)
            best = configs[int(np.argmax(gains))]
            assert np.array_equal(centroid(pi, gamma), best)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"suite took {elapsed:.1f} s"


def log_joint(design, y, beta, theta, sigma2, hyper):
    """Log joint density of (y, theta, beta, sigma^2) up to a constant, with
    theta plugged in (binary or the E-step's <theta>): the quantity each
    CM-step maximizes at fixed <theta>."""
    eta = design.matvec(beta)
    p1 = beta.size
    ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    pen = float(np.sum(beta**2 * prior_scale(theta, hyper.kappa))) / (2.0 * sigma2)
    return (
        ll
        - p1 / 2.0 * np.log(sigma2)
        - pen
        - (hyper.nu + 1.0) * np.log(sigma2)
        - hyper.lam / sigma2
    )


def test_log_joint_finite(rng):
    X = np.column_stack([np.ones(6), rng.integers(0, 3, (6, 2)).astype(float)])
    design = truncate_design(X, min(X.shape))
    y = rng.integers(0, 2, 6).astype(float)
    hyper = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-4.0, xi1=2.0)
    val = log_joint(design, y, np.zeros(3), np.array([1.0, 0.5, 0.5]), 0.01, hyper)
    assert np.isfinite(val)


def test_criterion_7_ecm_ascent():
    with criterion(7, "ECM log-joint ascent"):
        # The conditional-maximization steps may never decrease the log joint
        # at fixed <theta>, and the full cycle may never decrease the
        # indicator-marginalized log posterior (the EM ascent quantity).
        for seed in range(20):
            r = np.random.default_rng(seed)
            n = int(r.integers(20, 61))
            p = int(r.integers(2, 11))
            X = np.column_stack(
                [np.ones(n), r.integers(0, 3, size=(n, p)).astype(float)]
            )
            y = r.integers(0, 2, n).astype(float)
            boosts = r.uniform(0, 1, p)
            hyper = Hyperparameters(
                kappa=float(r.choice([16.0, 100.0])),
                nu=3.0,
                lam=0.02,
                xi0=float(r.uniform(-4, 0)),
                xi1=float(r.uniform(0, 2)),
            )
            design = truncate_design(X, min(X.shape))  # untruncated
            beta = np.zeros(p + 1)
            sigma2 = hyper.lam / (hyper.nu + 1.0)
            prev_marginal = marginal_log_posterior(
                y, design.matvec(beta), beta, sigma2, boosts, hyper
            )
            for _ in range(40):
                etheta = e_step(beta, sigma2, boosts, hyper)
                before = log_joint(design, y, beta, etheta, sigma2, hyper)
                sigma2 = cm_sigma(beta, etheta, hyper)
                after_sigma = log_joint(design, y, beta, etheta, sigma2, hyper)
                assert after_sigma >= before - 1e-8
                beta = cm_beta(
                    design, y, design.matvec(beta), beta, etheta, sigma2, hyper
                )
                after_beta = log_joint(design, y, beta, etheta, sigma2, hyper)
                assert after_beta >= after_sigma - 1e-8
                marginal = marginal_log_posterior(
                    y, design.matvec(beta), beta, sigma2, boosts, hyper
                )
                assert marginal >= prev_marginal - 1e-8
                prev_marginal = marginal


def test_criterion_8_scaled_simulation_study():
    with criterion(8, "scaled simulation study"):
        t0 = time.perf_counter()
        seeds = list(range(10))
        # the desk-scale study: phi and rank fixed, 4 rounds, 400 sweeps
        config = RunConfig(
            phi=1.5e4,
            filtering=FilterConfig(max_rounds=4, rank=100),
            gibbs_iters=400,
            gibbs_burnin=100,
        )
        em_run = study_harness(config, 100, 200, seeds)
        full_run = study_harness(config, 100, 200, seeds, gibbs_ranking=True)
        assert em_run.median_auc_sb > 0.5
        assert em_run.median_auc_sb >= em_run.median_auc_ss - 0.02
        assert full_run.median_tpr_sb >= full_run.median_tpr_ss
        elapsed = time.perf_counter() - t0
        assert elapsed < 900.0, f"study took {elapsed:.1f} s"


def test_criterion_9_phi_recovery():
    with criterion(9, "phi recovery"):
        from tests.conftest import correlated_columns

        rng = np.random.default_rng(901)
        for phi_star in (1e3, 1e4, 1e5):
            pos = np.linspace(0.0, 4.0 * phi_star, 25)
            d = np.abs(pos[:, None] - pos[None, :])
            C = correlation_model(d, phi_star)
            np.fill_diagonal(C, 1.0)
            X = correlated_columns(C, 200, rng)
            est = fit_phi(X, pos)
            assert abs(est - phi_star) / phi_star < 0.05, f"phi*={phi_star}"


def _planted_files(dirpath, seed=5, n=150, p=30, planted=12):
    rng = np.random.default_rng(seed)
    positions = np.cumsum(rng.integers(800, 2500, size=p))
    mafs = rng.uniform(0.2, 0.5, size=p)
    G = rng.binomial(2, mafs, size=(n, p))
    y = (G[:, planted] >= 1).astype(int)
    flips = rng.random(n) < 0.08
    y[flips] = 1 - y[flips]
    header = "#pheno\t" + "\t".join(f"snp{j}:1:{positions[j]}" for j in range(p))
    rows = [header] + [
        str(y[i]) + "\t" + "\t".join(str(g) for g in G[i]) for i in range(n)
    ]
    geno = os.path.join(dirpath, "geno.tsv")
    with open(geno, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    genes = os.path.join(dirpath, "genes.bed")
    start = max(int(positions[planted]) - 3000, 0)
    with open(genes, "w") as fh:
        fh.write(f"1\t{start}\t{int(positions[planted]) + 3000}\tgeneA\n")
        fh.write(f"1\t{int(positions[0])}\t{int(positions[3])}\tgeneB\n")
    return geno, genes, f"snp{planted}"


def test_criterion_10_pipeline_determinism_and_planted_signal(tmp_path):
    with criterion(10, "end-to-end determinism"):
        geno, genes, planted_id = _planted_files(str(tmp_path))
        for run in ("run1", "run2"):
            cfg = RunConfig(
                genotypes=geno,
                genes=genes,
                out_dir=str(tmp_path / run),
                seed=11,
                phi=5000.0,
                filtering=FilterConfig(max_rounds=3),
                gibbs_iters=600,
                gibbs_burnin=150,
                em=Hyperparameters(
                    kappa=1000.0, nu=3.0, lam=0.02, xi0=-4.0, xi1=2.0
                ),
                gibbs=Hyperparameters(
                    kappa=100.0, nu=3.0, lam=0.02, xi0=-2.0, xi1=2.0
                ),
            )
            run_pipeline(cfg)
        for name in ("report.tsv", "bfdr.tsv", "selection_gamma1.tsv"):
            assert filecmp.cmp(
                str(tmp_path / "run1" / name),
                str(tmp_path / "run2" / name),
                shallow=False,
            ), f"{name} differs between runs"
        selected = {}
        for line in open(str(tmp_path / "run1" / "report.tsv")):
            cells = line.rstrip("\n").split("\t")
            if cells[0] != "snp":
                selected[cells[0]] = cells[-1]
        assert selected[planted_id] == "1", "planted SNP not selected at gamma=1"


def test_criterion_11_ppl_arithmetic():
    with criterion(11, "PPL arithmetic"):
        n = 12
        design = truncate_design(np.ones((n, 1)), 1)
        y = np.array([1.0] * 6 + [0.0] * 6)
        assert ppl(y, expit(design.matvec(np.zeros(1)))) == n / 2.0
        Xs = np.diag([1.0] * 4)
        ys = np.array([1.0, 0.0, 1.0, 0.0])
        exact = np.array([800.0, -800.0, 800.0, -800.0])
        assert ppl(ys, expit(truncate_design(Xs, 4).matvec(exact))) == 0.0
