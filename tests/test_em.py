from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

import spatialboost.em as em
from spatialboost.em import (
    ASCENT_SLACK,
    STOP_RESIDUAL,
    TRACE_TOP_MARKERS,
    EmState,
    FilterConfig,
    Hyperparameters,
    cm_beta,
    cm_sigma,
    e_step,
    em_filter_pipeline,
    em_fit,
    em_prior_covariance,
    em_ranking_scores,
    filter_round,
    marginal_log_posterior,
    max_residual,
    ppl,
)
from spatialboost.errors import ConfigurationError
from spatialboost.linalg import truncate_design
from spatialboost.pipeline import RunConfig
from spatialboost.sim import synthetic_genotypes
from tests.conftest import reconstruct

HYPER = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-4.0, xi1=2.0)


def _full_design(X):
    return truncate_design(X, min(X.shape))


def test_hyperparameter_validation():
    with pytest.raises(ConfigurationError):
        Hyperparameters(kappa=1.0, nu=1.0, lam=1.0, xi0=0.0, xi1=0.0)
    with pytest.raises(ConfigurationError):
        Hyperparameters(kappa=2.0, nu=-1.0, lam=1.0, xi0=0.0, xi1=0.0)
    with pytest.raises(ConfigurationError):
        Hyperparameters(kappa=2.0, nu=1.0, lam=1.0, xi0=0.0, xi1=-0.5)


@pytest.mark.parametrize("name", ["kappa", "nu", "lam", "xi0", "xi1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hyperparameters_reject_non_finite_fields(name, bad):
    # a NaN kappa would pass kappa <= 1, and an infinite one kappa > 1
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite, got "):
        replace(HYPER, **{name: bad})


def test_e_step_intercept_pinned():
    et = e_step(np.zeros(4), 0.01, np.zeros(3), HYPER)
    assert et[0] == 1.0


def test_e_step_reference_value_null_beta():
    hyper = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-4.0, xi1=0.0)
    et = e_step(np.array([0.0, 0.0]), 0.01, np.zeros(1), hyper)
    # logit = -log(100)/2 - 4 = -6.3026
    assert et[1] == pytest.approx(0.00182, abs=2e-5)


def test_e_step_reference_value_boosted():
    et = e_step(np.array([0.0, 0.1]), 0.01, np.ones(1), HYPER)
    # logit = -2.3026 + 0.495 - 4 + 2 = -3.8076
    assert et[1] == pytest.approx(0.0217, abs=2e-4)


def test_e_step_monotone_in_beta_and_boost():
    probs = [
        e_step(np.array([0.0, b]), 0.01, np.zeros(1), HYPER)[1]
        for b in (0.0, 0.05, 0.1, 0.2)
    ]
    assert np.all(np.diff(probs) > 0)
    probs = [
        e_step(np.array([0.0, 0.0]), 0.01, np.array([b]), HYPER)[1]
        for b in (0.0, 0.3, 0.7, 1.0)
    ]
    assert np.all(np.diff(probs) > 0)


def test_e_step_rejects_bad_sigma2():
    with pytest.raises(ConfigurationError):
        e_step(np.zeros(2), 0.0, np.zeros(1), HYPER)


def test_cm_sigma_prior_mode_at_zero_beta():
    hyper = Hyperparameters(kappa=4.0, nu=2.0, lam=0.5, xi0=0.0, xi1=0.0)
    et = np.array([1.0, 0.3, 0.8])
    expected = 0.5 / (3 / 2.0 + 2.0 + 1.0)
    assert cm_sigma(np.zeros(3), et, hyper) == pytest.approx(expected)


def test_cm_sigma_hand_example():
    hyper = Hyperparameters(kappa=4.0, nu=1.0, lam=1.0, xi0=0.0, xi1=0.0)
    got = cm_sigma(np.array([1.0, 1.0]), np.array([1.0, 1.0]), hyper)
    assert got == pytest.approx(1.25 / 3.0, abs=1e-6)


def test_cm_sigma_large_kappa_limit():
    hyper = Hyperparameters(kappa=1e8, nu=1.0, lam=0.5, xi0=0.0, xi1=0.0)
    beta = np.array([2.0, 1.0, 3.0])
    et = np.array([1.0, 0.0, 0.0])
    expected = (0.5 * (1.0 + 9.0) + 0.5 * 4.0 / 1e8 + 0.5) / (
        3 / 2.0 + 1.0 + 1.0
    )
    assert cm_sigma(beta, et, hyper) == pytest.approx(expected, rel=1e-6)


def test_cm_sigma_floor_invariant(rng):
    for _ in range(20):
        p1 = int(rng.integers(2, 8))
        beta = rng.standard_normal(p1)
        et = rng.uniform(0, 1, p1)
        et[0] = 1.0
        floor = HYPER.lam / (p1 / 2.0 + HYPER.nu + 1.0)
        assert cm_sigma(beta, et, HYPER) >= floor - 1e-12


def test_cm_beta_balanced_intercept_stays_zero():
    X = np.ones((6, 1))
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    design = _full_design(X)
    beta = cm_beta(
        design, y, design.matvec(np.zeros(1)), np.zeros(1), np.ones(1), 0.01, HYPER
    )
    assert beta[0] == pytest.approx(0.0, abs=1e-12)


def test_cm_beta_matches_dense_irls_oracle(rng):
    n, p = 6, 2
    X = np.column_stack([np.ones(n), rng.integers(0, 3, (n, p)).astype(float)])
    y = rng.integers(0, 2, n).astype(float)
    beta = rng.standard_normal(p + 1) * 0.3
    et = np.array([1.0, 0.4, 0.9])
    sigma2 = 0.05
    design = _full_design(X)

    mu = expit(X @ beta)
    W = np.diag(mu * (1.0 - mu))
    sigma_vec = em_prior_covariance(et, sigma2, HYPER.kappa)
    A = X.T @ W @ X + np.diag(1.0 / sigma_vec)
    rhs = X.T @ W @ X @ beta + X.T @ (y - mu)
    expected = np.linalg.solve(A, rhs)
    got = cm_beta(design, y, design.matvec(beta), beta, et, sigma2, HYPER)
    assert np.allclose(got, expected, atol=1e-8)


def test_cm_beta_infinite_shrinkage_limit(rng):
    X = np.column_stack([np.ones(5), rng.integers(0, 3, (5, 2)).astype(float)])
    design = _full_design(X)
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    beta = rng.standard_normal(3)
    beta_new = cm_beta(
        design, y, design.matvec(beta), beta, np.zeros(3), 1e-12, HYPER
    )
    assert np.max(np.abs(beta_new)) < 1e-6


def test_em_fit_iteration_contract(rng, monkeypatch):
    X = np.column_stack([np.ones(8), rng.integers(0, 3, (8, 2)).astype(float)])
    y = rng.integers(0, 2, 8).astype(float)
    design = _full_design(X)
    monkeypatch.setattr(em, "EM_MAX_ITER", 1)
    state = em_fit(design, y, np.zeros(2), HYPER)
    assert state.iterations == 1
    assert len(state.objective_trace) == 1


def test_em_fit_null_simulation_shrinks():
    rng = np.random.default_rng(99)
    n, p = 60, 8
    X = np.column_stack([np.ones(n), rng.integers(0, 3, (n, p)).astype(float)])
    y = rng.integers(0, 2, n).astype(float)
    hyper = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-6.0, xi1=0.0)
    state = em_fit(_full_design(X), y, np.zeros(p), hyper)
    assert np.all(state.etheta[1:] < 0.01)
    mode = cm_sigma(state.beta, state.etheta, hyper)
    assert state.sigma2 == pytest.approx(mode, rel=1e-6)
    assert not state.diverged


def test_em_fit_separated_genotype_reaches_stationary_point():
    rng = np.random.default_rng(5)
    n = 50
    x = np.concatenate([np.zeros(25), np.full(25, 2.0)])
    rng.shuffle(x)
    y = (x > 1.0).astype(float)
    X = np.column_stack([np.ones(n), x])
    design = _full_design(X)
    hyper = Hyperparameters(kappa=100.0, nu=3.0, lam=1.0, xi0=-1.0, xi1=0.0)
    state = em_fit(design, y, np.zeros(1), hyper)
    assert state.converged
    assert state.beta[1] > 0.5
    # stationarity: the penalized-likelihood gradient vanishes at the fit
    mu = expit(X @ state.beta)
    sigma_vec = em_prior_covariance(state.etheta, state.sigma2, hyper.kappa)
    grad = X.T @ (y - mu) - state.beta / sigma_vec
    assert np.max(np.abs(grad)) < 1e-3
    trace = np.array(state.objective_trace)
    assert np.all(np.diff(trace) > -1e-8)


def test_em_fit_tall_panel_ascends_marginal_objective():
    # a candidate-gene panel (2000 individuals, 120 markers, full rank) fit
    # with the default em hyperparameters: the plug-in log joint dips seven
    # times along this fit, but the marginal log posterior the ECM ascends
    # never falls, so the fit is not flagged
    rng = np.random.default_rng(0)
    n, p = 2000, 120
    G = synthetic_genotypes(n, p, rng, ld_rho=0.5)
    effect = np.zeros(p)
    causal = rng.choice(p, 6, replace=False)
    effect[causal] = rng.choice([-1.0, 1.0], 6) * rng.uniform(0.5, 1.0, 6)
    eta = (G - G.mean(axis=0)) @ effect
    y = (rng.random(n) < expit(eta)).astype(float)
    boosts = rng.uniform(0, 1, p)
    design = FilterConfig(rank=p + 1).factor(G, np.arange(p))
    state = em_fit(design, y, boosts, RunConfig().em)
    assert state.converged
    assert len(state.objective_trace) == state.iterations > 2
    assert np.all(np.diff(state.objective_trace) >= -ASCENT_SLACK)
    assert not state.diverged
    # the state's eta is its beta's linear predictor, bit for bit
    assert state.eta.tobytes() == design.matvec(state.beta).tobytes()


def test_marginal_log_posterior_matches_direct_sum(rng):
    n, p = 12, 3
    X = np.column_stack([np.ones(n), rng.integers(0, 3, (n, p)).astype(float)])
    y = rng.integers(0, 2, n).astype(float)
    b = rng.uniform(0, 1, p)
    beta = rng.standard_normal(p + 1) * 0.2
    sigma2 = 0.3
    design = _full_design(X)

    eta = X @ beta
    ll = np.sum(y * eta - np.log1p(np.exp(eta)))
    direct = ll - (HYPER.nu + 1.0) * np.log(sigma2) - HYPER.lam / sigma2
    slab_sd = np.sqrt(sigma2 * HYPER.kappa)
    direct += -0.5 * np.log(sigma2 * HYPER.kappa) - beta[0] ** 2 / (
        2.0 * slab_sd**2
    )
    pj = expit(HYPER.xi0 + HYPER.xi1 * b)
    for j in range(p):
        slab = (
            pj[j]
            * np.exp(-beta[j + 1] ** 2 / (2 * sigma2 * HYPER.kappa))
            / np.sqrt(sigma2 * HYPER.kappa)
        )
        spike = (
            (1 - pj[j])
            * np.exp(-beta[j + 1] ** 2 / (2 * sigma2))
            / np.sqrt(sigma2)
        )
        direct += np.log(slab + spike)
    got = marginal_log_posterior(y, design.matvec(beta), beta, sigma2, b, HYPER)
    assert got == pytest.approx(direct, abs=1e-8)


def _fitted(design, beta):
    """Fitted probabilities through the truncated design, as the filter
    loop computes them."""
    return expit(design.matvec(np.asarray(beta, float)))


def test_should_stop_cases():
    X = np.ones((1, 1))
    design = _full_design(X)
    y = np.array([1.0])

    def should_stop(beta):
        # the filter's residual stop rule in em_filter_pipeline
        return max_residual(y, _fitted(design, beta)) > STOP_RESIDUAL

    # fitted 0.5 on y=1: residual exactly 0.5, strict inequality -> keep going
    assert not should_stop([0.0])
    # fitted 0.3 on y=1: residual 0.7 -> stop
    beta = [np.log(0.3 / 0.7)]
    assert should_stop(beta)
    assert max_residual(y, _fitted(design, beta)) == pytest.approx(0.7)
    # well-fitted point
    assert not should_stop([2.0])


def test_ppl_exact_values():
    n = 10
    X = np.ones((n, 1))
    design = _full_design(X)
    y = np.array([1.0] * 5 + [0.0] * 5)
    assert ppl(y, _fitted(design, [0.0])) == pytest.approx(n / 2.0)
    # saturated fit: fitted probabilities exactly 0/1
    Xs = np.diag([1.0] * 4)
    ys = np.array([1.0, 0.0, 1.0, 0.0])
    beta = np.array([800.0, -800.0, 800.0, -800.0])
    assert ppl(ys, _fitted(_full_design(Xs), beta)) == 0.0


def test_ppl_random_formula_oracle(rng):
    n = 7
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    design = _full_design(X)
    beta = rng.standard_normal(2)
    y = rng.integers(0, 2, n).astype(float)
    yhat = expit(X @ beta)
    expected = float(np.sum((y - yhat) ** 2 + yhat * (1 - yhat)))
    assert ppl(y, _fitted(design, beta)) == pytest.approx(expected)


def test_filter_round_removes_lowest():
    state = EmState(
        beta=np.zeros(5),
        sigma2=0.01,
        etheta=np.array([1.0, 0.9, 0.1, 0.5, 0.7]),
        eta=np.zeros(8),
    )
    kept = filter_round(state, 1)
    assert kept.tolist() == [0, 2, 3]


def test_filter_round_tie_break_lower_index():
    state = EmState(
        beta=np.zeros(5),
        sigma2=0.01,
        etheta=np.array([1.0, 0.5, 0.2, 0.2, 0.9]),
        eta=np.zeros(8),
    )
    kept = filter_round(state, 1)
    assert kept.tolist() == [0, 2, 3]


def _separable_instance(seed=3, n=40, p=100):
    rng = np.random.default_rng(seed)
    X = synthetic_genotypes(n, p, rng)
    w = rng.standard_normal(p)
    eta = X @ w
    eta = 3.0 * (eta - np.median(eta)) / eta.std()
    y = (eta > 0).astype(float)
    boosts = rng.uniform(0, 1, p)
    hyper = Hyperparameters(kappa=1000.0, nu=3.0, lam=5.0, xi0=1.0, xi1=1.0)
    return X, y, boosts, hyper


def _floor_instance():
    """12 markers, so one removal would leave 9, below the marker floor
    max(10, 40 // 10). At seed 9 the fit's max residual is 0.44, under
    STOP_RESIDUAL, so the floor stops the filter (at seed 3 it is 0.57, and
    the residual rule stops it first)."""
    return _separable_instance(seed=9, p=12)


def test_em_filter_pipeline_single_round():
    X, y, boosts, hyper = _separable_instance()
    trace = em_filter_pipeline(
        X, y, boosts, hyper, FilterConfig(max_rounds=1, rank=40)
    )
    assert len(trace.rounds) == 1
    assert trace.rounds[0].retained.size == 100


def test_em_filter_pipeline_size_chain():
    X, y, boosts, hyper = _separable_instance()
    trace = em_filter_pipeline(
        X, y, boosts, hyper, FilterConfig(max_rounds=3, rank=40)
    )
    assert [r.retained.size for r in trace.rounds] == [100, 75, 57]
    assert trace.final_survivors.size == 43
    assert trace.stop_reason == "rounds"


def _same_factors(got, want):
    for name in ("U", "d", "V", "Xt", "K"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.relative_residual_energy == want.relative_residual_energy


def test_em_filter_pipeline_hands_over_the_survivors_design(monkeypatch):
    factored = []  # every design em_filter_pipeline factors, in order
    factor = FilterConfig.factor

    def recording_factor(self, X_markers, columns):
        factored.append(factor(self, X_markers, columns))
        return factored[-1]

    monkeypatch.setattr(FilterConfig, "factor", recording_factor)

    # floor stop: the marker floor max(10, 40 // 10) stops the filter before
    # any removal (12 - 3 < 10), so the last round's design is handed over
    X, y, boosts, hyper = _floor_instance()
    config = FilterConfig(max_rounds=3, rank=40)
    trace = em_filter_pipeline(X, y, boosts, hyper, config)
    assert trace.stop_reason == "floor"
    assert trace.final_survivors.size == 12
    assert len(factored) == len(trace.rounds) and trace.design is factored[-1]
    assert trace.design.rank == 13

    # the rounds run out after a removal: the survivors are factored anew
    X, y, boosts, hyper = _separable_instance()
    config = FilterConfig(max_rounds=2, rank=40)
    factored.clear()
    trace = em_filter_pipeline(X, y, boosts, hyper, config)
    assert trace.stop_reason == "rounds"
    assert len(factored) == len(trace.rounds) + 1 and trace.design is factored[-1]
    surv = trace.final_survivors
    assert surv.size < trace.rounds[-1].retained.size
    _same_factors(trace.design, factor(config, X, surv))
    expected = truncate_design(np.column_stack([np.ones(X.shape[0]), X[:, surv]]), 40)
    assert np.array_equal(reconstruct(trace.design), reconstruct(expected))

    # no round: the full design
    config = FilterConfig(max_rounds=0, rank=40)
    factored.clear()
    trace = em_filter_pipeline(X, y, boosts, hyper, config)
    assert trace.rounds == [] and np.array_equal(trace.final_survivors, np.arange(100))
    assert len(factored) == 1
    _same_factors(trace.design, factor(config, X, np.arange(100)))


def test_factor_int8_markers_match_float64():
    # a sample-space design keeps X' in the markers' dtype: int8 and float
    # copies of the same genotypes give the same X' values and every other
    # factor to the bit
    G = synthetic_genotypes(40, 100, np.random.default_rng(5))
    assert G.dtype == np.int8
    columns = np.array([0, 3, 4, 17, 60, 99])
    for config in (FilterConfig(), FilterConfig(rank=4), FilterConfig(rank=200)):
        for cols in (columns, np.arange(100)):
            got, want = config.factor(G, cols), config.factor(G.astype(float), cols)
            if want.sample_space:
                assert got.Xt.dtype == np.int8 and want.Xt.dtype == np.float64
                assert np.array_equal(got.Xt, want.Xt)
                want = replace(want, Xt=got.Xt)
            _same_factors(got, want)


def test_em_filter_pipeline_nesting_and_round_trip():
    X, y, boosts, hyper = _separable_instance()
    trace = em_filter_pipeline(
        X, y, boosts, hyper, FilterConfig(max_rounds=3, rank=40)
    )
    prev = set(trace.initial.tolist())
    for kept in [rec.retained for rec in trace.rounds] + [trace.final_survivors]:
        cur = set(kept.tolist())
        assert cur <= prev
        assert len(cur) == kept.size  # no duplicates
        prev = cur
    assert all(0 <= j < 100 for j in trace.final_survivors)


def test_em_filter_pipeline_trace_tsv():
    X, y, boosts, hyper = _separable_instance()
    trace = em_filter_pipeline(
        X, y, boosts, hyper, FilterConfig(max_rounds=2, rank=40)
    )
    text = trace.to_tsv([f"rs{j}" for j in range(100)])
    lines = text.strip().split("\n")
    assert lines[0].startswith("round\tretained")
    assert len(lines) == 1 + len(trace.rounds)
    tops = lines[1].split("\t")[4].split(",")
    assert len(tops) == TRACE_TOP_MARKERS and all(t.startswith("rs") for t in tops)


def test_em_filter_pipeline_stop_reason_and_trace_flags():
    X, y, boosts, hyper = _separable_instance()
    y_rare = np.zeros(X.shape[0])
    y_rare[:3] = 1.0  # three cases: their fitted probabilities stay low
    X12, y12, boosts12, _ = _floor_instance()
    for reason, (X_run, y_run, b_run), config in (
        ("rounds", (X, y, boosts), FilterConfig(max_rounds=2, rank=40)),
        ("floor", (X12, y12, boosts12), FilterConfig(max_rounds=3, rank=40)),
        ("residual", (X, y_rare, boosts), FilterConfig(max_rounds=3, rank=40)),
    ):
        trace = em_filter_pipeline(X_run, y_run, b_run, hyper, config)
        assert trace.stop_reason == reason
        rows = [
            ln.split("\t")
            for ln in trace.to_tsv([f"rs{j}" for j in range(100)]).splitlines()
        ]
        assert rows[0][5:] == ["iterations", "converged", "diverged", "stop_reason",
                               "rank", "residual_energy"]
        for row, rec in zip(rows[1:], trace.rounds):
            assert row[5:8] == [
                str(rec.state.iterations),
                str(int(rec.state.converged)),
                str(int(rec.state.diverged)),
            ]
            # each round's design, refactored from its columns
            design = config.factor(X_run, rec.retained)
            assert row[9:] == [str(design.rank),
                               f"{design.relative_residual_energy:.10g}"]
            assert int(row[9]) == min(40, rec.retained.size + 1)
        assert [row[8] for row in rows[1:]] == ["NA"] * (len(trace.rounds) - 1) + [
            reason
        ]
    trace = em_filter_pipeline(X, y, boosts, hyper, FilterConfig(max_rounds=0))
    assert trace.rounds == [] and trace.final_survivors.size == 100


@pytest.mark.parametrize(
    "kwargs", [{"max_rounds": -1}, {"fraction": 0.0}, {"fraction": 1.0}, {"rank": 0}]
)
def test_filter_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        FilterConfig(**kwargs)


def test_em_ranking_scores_survivors_rank_highest():
    X, y, boosts, hyper = _separable_instance()
    trace = em_filter_pipeline(
        X, y, boosts, hyper, FilterConfig(max_rounds=3, rank=40)
    )
    scores = em_ranking_scores(trace, 100)
    surv = trace.final_survivors
    removed_round0 = np.setdiff1d(trace.initial, trace.rounds[1].retained)
    assert scores[surv].min() > scores[removed_round0].max()
    assert np.all(scores >= 0.0)
