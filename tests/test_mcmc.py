import math
import warnings

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import ks_2samp

from spatialboost.em import (
    Hyperparameters,
    cm_beta,
    e_step,
    sigma2_posterior_params,
)
from spatialboost.errors import ConfigurationError
from spatialboost.linalg import truncate_design
from spatialboost.mcmc import (
    _PI2,
    GibbsState,
    _tail_mass,
    gibbs_cycle,
    gibbs_run,
    initial_state,
    sample_beta,
    sample_pg_vector,
    sample_sigma2,
    sample_theta,
)
from tests.conftest import (
    _mass_texpon,
    gamma_series_pg,
    pg_mean,
    pg_var,
    s_form_cm_beta,
    s_form_sample_beta,
    scalar_pg,
)

HYPER = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-3.0, xi1=2.0)


def test_pg_moment_formulas_continuous_at_zero():
    assert pg_mean(0.0) == 0.25
    assert pg_mean(1e-8) == pytest.approx(0.25, rel=1e-6)
    assert pg_var(0.0) == pytest.approx(1.0 / 24.0)
    assert pg_var(1e-4) == pytest.approx(1.0 / 24.0, rel=1e-4)


def test_pg_var_overflow_free_form():
    def closed_form(z):
        return (math.sinh(z) - z) / (4.0 * z**3 * math.cosh(z / 2.0) ** 2)

    for z in (0.5, 5.0, 50.0):
        assert pg_var(z) == pytest.approx(closed_form(z), rel=1e-12, abs=0.0)
    for z in (1e4, -1e4):
        v = pg_var(z)
        assert math.isfinite(v)
        assert v == pytest.approx(1.0 / (2.0 * 1e12), rel=1e-9, abs=0.0)


def test_sample_pg_mean_at_zero(rng):
    draws = sample_pg_vector(np.zeros(100_000), rng)
    assert draws.mean() == pytest.approx(0.25, abs=0.005)


def test_sample_pg_mean_at_three(rng):
    draws = sample_pg_vector(np.full(100_000, 3.0), rng)
    assert draws.mean() == pytest.approx(math.tanh(1.5) / 6.0, abs=0.003)


def test_sample_pg_symmetry_in_z(rng):
    a = sample_pg_vector(np.full(5000, 2.0), rng)
    b = sample_pg_vector(np.full(5000, -2.0), rng)
    assert ks_2samp(a, b).pvalue > 0.01


def test_sample_pg_matches_gamma_series_oracle(rng):
    a = sample_pg_vector(np.ones(5000), rng)
    b = gamma_series_pg(1.0, rng, 5000)
    assert ks_2samp(a, b).pvalue > 0.01


@pytest.mark.parametrize("z", [0.0, 1.0, 3.0, 3.2, 8.0, 40.0])
def test_sample_pg_matches_scalar_oracle(z, rng):
    # 3.0 and 3.2 straddle the inverse-Gaussian branch split at |z| = 3.125
    a = sample_pg_vector(np.full(4000, z), rng)
    b = np.array([scalar_pg(z, rng) for _ in range(4000)])
    assert ks_2samp(a, b).pvalue > 1e-3


def test_sample_pg_mixed_vector_keeps_positions(rng):
    zs = np.tile([0.0, 40.0], 20_000)
    draws = sample_pg_vector(zs, rng)
    assert draws.shape == zs.shape
    assert draws[0::2].mean() == pytest.approx(pg_mean(0.0), rel=0.03)
    assert draws[1::2].mean() == pytest.approx(pg_mean(40.0), rel=0.02)


@pytest.mark.parametrize("z", [98.0, 500.0, 1e4])
def test_sample_pg_saturated_z(z, rng):
    draws = sample_pg_vector(np.full(20_000, z), rng)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)
    assert draws.mean() == pytest.approx(math.tanh(z / 2.0) / (2.0 * z), rel=0.02)


def test_tail_mass_matches_scalar_oracle():
    zh = np.linspace(0.0, 60.0, 6001)
    got = _tail_mass(zh, _PI2 / 8.0 + zh * zh / 2.0)
    want = np.array([_mass_texpon(z) for z in zh])
    normal = want >= np.finfo(float).tiny
    assert normal[0] and not normal[-1]
    rel = np.abs(got[normal] - want[normal]) / want[normal]
    assert rel.max() <= 1e-12
    assert np.all(np.abs(got[~normal] - want[~normal]) <= np.finfo(float).tiny)


def test_tail_mass_saturated_is_zero_without_warnings():
    zh = np.array([50.0, 1e4, 1e150, np.inf])
    fz = _PI2 / 8.0 + zh * zh / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _tail_mass(zh, fz)
    assert got.tolist() == [0.0] * 4


def test_sample_pg_rejects_nonfinite(rng):
    for bad in (float("nan"), float("inf"), -float("inf")):
        for pos in (0, 2, 4):
            zs = np.ones(5)
            zs[pos] = bad
            with pytest.raises(ConfigurationError):
                sample_pg_vector(zs, rng)


def test_sample_pg_empty_input(rng):
    draws = sample_pg_vector(np.array([]), rng)
    assert draws.shape == (0,) and draws.dtype == np.float64


def test_sigma2_posterior_params_theta_one():
    beta = np.array([0.5, 1.0, -1.0])
    shape, scale = sigma2_posterior_params(np.ones(3), beta, HYPER)
    assert shape == pytest.approx(HYPER.nu + 1.5)
    assert scale == pytest.approx(HYPER.lam + 0.5 * np.sum(beta**2) / HYPER.kappa)


def test_sample_sigma2_inverse_gamma_mean(rng):
    beta = np.zeros(4)
    theta = np.ones(4)
    shape, scale = sigma2_posterior_params(theta, beta, HYPER)
    draws = np.array([sample_sigma2(theta, beta, HYPER, rng) for _ in range(100_000)])
    assert draws.mean() == pytest.approx(scale / (shape - 1.0), rel=0.01)


def test_sample_theta_saturates_and_pins_intercept(rng):
    hyper = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-50.0, xi1=0.0)
    beta = np.zeros(11)
    hits = np.zeros(11)
    for _ in range(10_000):
        hits += sample_theta(beta, 0.01, np.zeros(10), hyper, rng)
    assert hits[0] == 10_000
    assert np.all(hits[1:] == 0)


def test_sample_theta_frequency_matches_e_step(rng):
    beta = np.array([0.2, 0.1, -0.05, 0.3])
    boosts = np.array([0.1, 0.6, 1.0])
    probs = e_step(beta, 0.01, boosts, HYPER)
    hits = np.zeros(4)
    n = 100_000
    for _ in range(n):
        hits += sample_theta(beta, 0.01, boosts, HYPER, rng)
    assert np.all(np.abs(hits / n - probs) < 0.005)


def test_sample_beta_prior_domination(rng):
    X = np.column_stack([np.ones(8), rng.integers(0, 3, (8, 3)).astype(float)])
    design = truncate_design(X, 4)
    y = rng.integers(0, 2, 8).astype(float)
    xty = design.rmatvec(y - 0.5)
    theta = np.zeros(4)
    omega = np.full(8, 0.25)
    draws = np.array(
        [
            sample_beta(omega, theta, 1e-8, design, xty, HYPER, rng)
            for _ in range(500)
        ]
    )
    assert np.all(draws.std(axis=0) < 1e-3)


def test_sample_beta_matches_dense_gaussian(rng):
    n, p1 = 12, 4
    X = np.column_stack([np.ones(n), rng.integers(0, 3, (n, p1 - 1)).astype(float)])
    design = truncate_design(X, p1)
    y = rng.integers(0, 2, n).astype(float)
    omega = rng.uniform(0.1, 0.4, n)
    theta = np.array([1, 1, 0, 0], dtype=np.int8)
    sigma2 = 0.5

    sigma_vec = sigma2 * (theta * HYPER.kappa + 1.0 - theta)
    V = X.T @ np.diag(omega) @ X + np.diag(1.0 / sigma_vec)
    cov = np.linalg.inv(V)
    mean = cov @ (X.T @ (y - 0.5))
    xty = design.rmatvec(y - 0.5)

    m = 4000
    draws = np.array(
        [
            sample_beta(omega, theta, sigma2, design, xty, HYPER, rng)
            for _ in range(m)
        ]
    )
    se = np.sqrt(np.diag(cov) / m)
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 5 * se)
    emp_cov = np.cov(draws.T)
    assert np.allclose(
        np.diag(emp_cov), np.diag(cov), rtol=0.15
    )


def _genotype_design(rng, n, p1, l):
    X = np.column_stack([np.ones(n), rng.integers(0, 3, (n, p1 - 1)).astype(float)])
    return truncate_design(X, l)


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# (n, p1, l) -> whether the design takes the sample-space core
_ORACLE_DESIGNS = {
    (30, 61, 20): True,  # l < p+1, 3l = 2n
    (40, 11, 11): False,  # l = p+1
    (30, 61, 30): True,  # full rank, l = n < p+1
    (40, 41, 27): True,  # l < n < p+1
    (40, 41, 26): False,  # one below the switch
}


@pytest.mark.parametrize(
    "n, p1, l, included",
    [
        (*shape, included)
        for shape in _ORACLE_DESIGNS
        # "intercept" gives B = {0}; "all" sets every theta = 1, so B is empty
        for included in ("random", "intercept", "all")
    ],
)
def test_sample_beta_matches_s_form_oracle(n, p1, l, included):
    rng = np.random.default_rng(606)
    design = _genotype_design(rng, n, p1, l)
    assert design.sample_space == _ORACLE_DESIGNS[n, p1, l]
    y = rng.integers(0, 2, n).astype(float)
    omega = rng.uniform(0.05, 0.3, n)
    theta = {
        "random": rng.integers(0, 2, p1),
        "intercept": np.zeros(p1),
        "all": np.ones(p1),
    }[included].astype(np.int8)
    theta[0] = 1
    for sigma2 in (1e-3, 0.3):
        got = sample_beta(omega, theta, sigma2, design, design.rmatvec(y - 0.5),
                          HYPER, np.random.default_rng(7))
        want = s_form_sample_beta(omega, theta, sigma2, design, y, HYPER,
                                  np.random.default_rng(7))
        assert _rel_err(got, want) < 1e-10


@pytest.mark.parametrize("n, p1, l", list(_ORACLE_DESIGNS))
def test_cm_beta_with_zero_weights_matches_s_form_oracle(n, p1, l):
    rng = np.random.default_rng(607)
    design = _genotype_design(rng, n, p1, l)
    y = rng.integers(0, 2, n).astype(float)
    etheta = rng.uniform(0.0, 1.0, p1)
    etheta[0] = 1.0
    beta = rng.standard_normal(p1) * 10.0
    beta[0] = 40.0
    mu = expit(design.matvec(beta))
    W = mu * (1.0 - mu)
    assert 0 < np.count_nonzero(W == 0.0) < n  # saturated fits
    for b in (beta, np.full(p1, 40.0)):  # the second saturates every W
        got = cm_beta(design, y, design.matvec(b), b, etheta, 0.05, HYPER)
        want = s_form_cm_beta(design, y, b, etheta, 0.05, HYPER)
        assert _rel_err(got, want) < 1e-10


def test_geweke_joint_distribution_sample_space():
    # criterion 5's successive-conditional check on a full-rank design with
    # p + 1 > n, so every beta draw takes the sample-space path
    n, p = 6, 8
    hyper = Hyperparameters(kappa=4.0, nu=6.0, lam=5.0, xi0=0.0, xi1=1.0)
    rng0 = np.random.default_rng(2025)
    X = np.column_stack([np.ones(n), rng0.integers(0, 3, size=(n, p)).astype(float)])
    boosts = rng0.uniform(0, 1, size=p)
    design = truncate_design(X, min(X.shape))
    assert design.rank == n and design.sample_space
    N = 20_000

    def g_funcs(sigma2, theta, beta):
        ts = theta[1:].sum()
        return np.array([sigma2, sigma2**2, ts, ts**2, beta[0], beta[0] ** 2,
                         beta[1], beta[1] ** 2])

    def prior_draw(rng):
        sigma2 = hyper.lam / rng.gamma(hyper.nu)
        theta = np.ones(p + 1, dtype=np.int8)
        theta[1:] = rng.random(p) < expit(hyper.xi0 + hyper.xi1 * boosts)
        sd = np.sqrt(sigma2 * (theta * hyper.kappa + 1.0 - theta))
        return sigma2, theta, rng.standard_normal(p + 1) * sd

    rng_mc = np.random.default_rng(21)
    mc = np.array([g_funcs(*prior_draw(rng_mc)) for _ in range(N)])

    rng_sc = np.random.default_rng(22)
    sigma2, theta, beta = prior_draw(rng_sc)
    state = GibbsState(beta=beta, theta=theta, sigma2=sigma2)
    sc = np.empty_like(mc)
    for it in range(N):
        y = (rng_sc.random(n) < expit(design.matvec(state.beta))).astype(float)
        state = gibbs_cycle(state, design, design.rmatvec(y - 0.5), boosts,
                            hyper, rng_sc)
        sc[it] = g_funcs(state.sigma2, state.theta, state.beta)

    se_mc = mc.std(axis=0, ddof=1) / np.sqrt(N)
    nb = 100
    batch_means = sc.reshape(nb, N // nb, -1).mean(axis=1)
    se_sc = batch_means.std(axis=0, ddof=1) / np.sqrt(nb)
    z = (mc.mean(axis=0) - sc.mean(axis=0)) / np.sqrt(se_mc**2 + se_sc**2)
    assert np.all(np.abs(z) < 4.0), f"z-scores {np.round(z, 2)}"


def test_sample_beta_rejects_nonpositive_omega(rng):
    X = np.ones((3, 1))
    design = truncate_design(X, 1)
    with pytest.raises(ConfigurationError):
        sample_beta(
            np.array([0.1, 0.0, 0.2]),
            np.ones(1),
            0.1,
            design,
            np.zeros(1),
            HYPER,
            rng,
        )


def _small_problem(seed=0, n=20, p=5):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.integers(0, 3, (n, p)).astype(float)])
    beta_true = np.zeros(p + 1)
    beta_true[1] = 1.5
    y = (rng.random(n) < expit(X @ beta_true)).astype(float)
    boosts = rng.uniform(0, 1, p)
    return truncate_design(X, min(X.shape)), y, boosts


def test_gibbs_run_single_retained_draw():
    design, y, boosts = _small_problem()
    chain = gibbs_run(design, y, boosts, HYPER, iters=3, burnin=2, seed=1)
    assert chain.draws_retained == 1
    assert set(np.unique(chain.pi_hat)) <= {0.0, 1.0}
    assert chain.pi_hat[0] == 1.0


def test_gibbs_run_fixed_seed_is_deterministic():
    design, y, boosts = _small_problem()
    c1 = gibbs_run(design, y, boosts, HYPER, iters=50, burnin=10, seed=7)
    c2 = gibbs_run(design, y, boosts, HYPER, iters=50, burnin=10, seed=7)
    assert np.array_equal(c1.pi_hat, c2.pi_hat)
    assert np.array_equal(c1.beta_draws, c2.beta_draws)
    assert np.array_equal(c1.sigma2_draws, c2.sigma2_draws)


def test_gibbs_run_theta0_always_one():
    design, y, boosts = _small_problem()
    chain = gibbs_run(design, y, boosts, HYPER, iters=40, burnin=5, seed=2)
    assert np.all(chain.theta_draws[:, 0] == 1)


def test_gibbs_run_validates_iteration_counts():
    design, y, boosts = _small_problem()
    with pytest.raises(ConfigurationError):
        gibbs_run(design, y, boosts, HYPER, iters=5, burnin=5, seed=0)
    with pytest.raises(ConfigurationError):
        gibbs_run(design, y, boosts, HYPER, iters=5, burnin=-1, seed=0)


def test_gibbs_run_default_burnin_and_truncation_report():
    design, y, boosts = _small_problem()
    chain = gibbs_run(design, y, boosts, HYPER, iters=50, seed=3)
    assert chain.draws_retained == 40  # 20% of the sweeps are burn-in


def test_gibbs_run_retained_draws():
    # the retained arrays hold the states of the sweeps after burn-in, as a
    # hand-run chain from the same seed produces them
    design, y, boosts = _small_problem()
    chain = gibbs_run(design, y, boosts, HYPER, iters=6, burnin=2, seed=4)
    assert chain.theta_draws.dtype == np.int8
    assert chain.theta_draws.shape == chain.beta_draws.shape == (4, design.p1)
    assert chain.sigma2_draws.shape == (4,)
    rng = np.random.default_rng(4)
    state = initial_state(design, HYPER)
    xty = design.rmatvec(y - 0.5)
    for it in range(6):
        state = gibbs_cycle(state, design, xty, boosts, HYPER, rng)
        if it >= 2:
            assert np.array_equal(chain.theta_draws[it - 2], state.theta)
            assert chain.beta_draws[it - 2].tobytes() == state.beta.tobytes()
            assert chain.sigma2_draws[it - 2] == state.sigma2


def test_gibbs_seeds_agree_within_monte_carlo_error():
    design, y, boosts = _small_problem(seed=8, n=40, p=4)
    c1 = gibbs_run(design, y, boosts, HYPER, iters=1500, burnin=300, seed=10)
    c2 = gibbs_run(design, y, boosts, HYPER, iters=1500, burnin=300, seed=11)
    assert np.max(np.abs(c1.pi_hat - c2.pi_hat)) < 0.25


def test_initial_state_contract():
    design, _, _ = _small_problem()
    state = initial_state(design, HYPER)
    assert state.theta[0] == 1
    assert np.all(state.beta == 0.0)
    assert state.sigma2 == pytest.approx(HYPER.lam / (HYPER.nu + 1.0))
