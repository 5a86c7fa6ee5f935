import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spatialboost import linalg
from spatialboost.errors import ConfigurationError, NumericalError
from spatialboost.linalg import (
    TruncatedDesign,
    WoodburySolver,
    Workspace,
    select_rank,
    truncate_design,
    weighted_cholesky,
    weighted_woodbury,
)
from tests.conftest import dense_woodbury, orthonormal, reconstruct


def test_select_rank_exact_low_rank(rng):
    u = rng.standard_normal((8, 2))
    v = rng.standard_normal((2, 5))
    X = u @ v
    assert select_rank(X, tol=1e-9) == 2


def test_select_rank_full_rank_noise(rng):
    X = rng.standard_normal((6, 4))
    assert select_rank(X, tol=1e-12) == 4


def _known_singular_values():
    """diag(4, 2, 1) over 6 zero rows: orthogonal columns scaled by known
    singular values, with n = 9, so every rank up to 3 is in rank space."""
    return np.vstack([np.diag([4.0, 2.0, 1.0]), np.zeros((6, 3))])


def test_select_rank_known_singular_values():
    # tail sums are exact
    X = _known_singular_values()
    # ||X||^2 = 21; keeping l=1 leaves residual energy 5, l=2 leaves 1
    assert select_rank(X, tol=6.0 / 21.0) == 1
    assert select_rank(X, tol=3.0 / 21.0) == 2
    assert select_rank(X, tol=0.5 / 21.0) == 3


def test_select_rank_validation():
    with pytest.raises(ConfigurationError):
        select_rank(np.empty((0, 0)), 0.01)
    with pytest.raises(ConfigurationError):
        select_rank(np.eye(3), tol=0.0)
    with pytest.raises(ConfigurationError):
        select_rank(np.eye(3), tol=np.inf)


def test_truncate_design_rank_from_tol_matches_select_rank(rng):
    X = _known_singular_values()
    for tol, rank in ((6.0 / 21.0, 1), (3.0 / 21.0, 2), (0.5 / 21.0, 3)):
        design = truncate_design(X, tol=tol)
        assert design.rank == rank and not design.sample_space
        assert design.relative_residual_energy <= tol
    X = np.column_stack([np.ones(30), rng.integers(0, 3, size=(30, 50))])
    for tol in (0.5, 0.1, 0.01, 1e-6):
        assert truncate_design(X, tol=tol).rank == select_rank(X, tol)
    with pytest.raises(ConfigurationError):
        truncate_design(X, tol=0.0)


def test_rank_rule_needs_tol_without_rank():
    # rank_tol's default lives in FilterConfig alone
    X = _known_singular_values()
    with pytest.raises(TypeError):
        truncate_design(X)
    with pytest.raises(TypeError):
        select_rank(X)
    design = truncate_design(X, 2)
    assert design.rank == 2 and not design.sample_space


def test_truncate_design_rank_one(rng):
    u = rng.standard_normal(6)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    X = 3.0 * np.outer(u, v)
    design = truncate_design(X, 1)
    assert design.d[0] == pytest.approx(3.0)
    assert np.allclose(np.abs(design.V[:, 0]), np.abs(v))
    assert np.allclose(reconstruct(design), X, atol=1e-12)


def test_truncate_design_full_rank_zero_residual(rng):
    X = rng.standard_normal((7, 5))
    design = truncate_design(X, 5)
    assert design.relative_residual_energy == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(reconstruct(design), X, atol=1e-10)


def test_truncate_design_residual_matches_svd_oracle(rng):
    X = rng.standard_normal((5, 8))
    design = truncate_design(X, 3)
    s = np.linalg.svd(X, compute_uv=False)
    expected = np.sum(s[3:] ** 2) / np.sum(s**2)
    assert design.relative_residual_energy == pytest.approx(expected, abs=1e-10)


def test_truncate_design_sign_determinism(rng):
    X = rng.standard_normal((6, 4))
    d1 = truncate_design(X, 3)
    d2 = truncate_design(X.copy(), 3)
    assert np.array_equal(d1.U, d2.U)
    assert np.array_equal(d1.V, d2.V)
    for k in range(3):
        col = d1.V[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        assert col[nz[0]] > 0


def test_truncate_design_rank_bounds(rng):
    X = rng.standard_normal((4, 3))
    with pytest.raises(ConfigurationError):
        truncate_design(X, 0)
    with pytest.raises(ConfigurationError):
        truncate_design(X, 4)


def test_matvec_rmatvec_consistency(rng):
    X = rng.standard_normal((9, 6))
    design = truncate_design(X, 6)
    beta = rng.standard_normal(6)
    r = rng.standard_normal(9)
    assert np.allclose(design.matvec(beta), X @ beta, atol=1e-10)
    assert np.allclose(design.rmatvec(r), X.T @ r, atol=1e-10)


def test_woodbury_zero_s_collapses_to_sigma(rng):
    sigma = rng.uniform(0.5, 2.0, 5)
    rhs = rng.standard_normal(5)
    out = WoodburySolver(np.zeros((1, 1)), orthonormal(5, 1, rng), sigma).solve(rhs)
    assert np.allclose(out, sigma * rhs, atol=1e-12)


def test_woodbury_sherman_morrison(rng):
    s = rng.standard_normal(6)
    sigma = rng.uniform(0.5, 2.0, 6)
    rhs = rng.standard_normal(6)
    # (s s' + D)^-1 = D^-1 - D^-1 s s' D^-1 / (1 + s' D^-1 s), D = diag(1/sigma)
    Dinv = np.diag(sigma)
    expected = (
        Dinv - np.outer(Dinv @ s, s @ Dinv) / (1.0 + s @ Dinv @ s)
    ) @ rhs
    norm = np.linalg.norm(s)
    solver = WoodburySolver(np.array([[norm]]), (s / norm)[:, None], sigma)
    assert np.allclose(solver.solve(rhs), expected, atol=1e-10)


def test_woodbury_dense_oracle(rng):
    C = rng.standard_normal((4, 4))
    V = orthonormal(10, 4, rng)
    sigma = rng.uniform(0.1, 3.0, 10)
    rhs = rng.standard_normal(10)
    out = WoodburySolver(C, V, sigma).solve(rhs)
    expected = dense_woodbury(C @ V.T, sigma, rhs)
    assert np.linalg.norm(out - expected) / np.linalg.norm(expected) < 1e-8


def test_woodbury_matrix_rhs(rng):
    C = rng.standard_normal((3, 3))
    V = orthonormal(7, 3, rng)
    sigma = rng.uniform(0.1, 2.0, 7)
    R = rng.standard_normal((7, 4))
    out = WoodburySolver(C, V, sigma).solve(R)
    assert np.allclose(out, dense_woodbury(C @ V.T, sigma, R), atol=1e-9)


def test_woodbury_validation(rng):
    C = rng.standard_normal((2, 2))
    V = orthonormal(4, 2, rng)
    with pytest.raises(ConfigurationError):
        WoodburySolver(C, V, np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        WoodburySolver(C, V, np.ones(3))
    with pytest.raises(ConfigurationError):
        WoodburySolver(rng.standard_normal((2, 3)), V, np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_woodbury_prior_covariance_checks(rng, bad):
    # a non-finite sigma comes from a fit that diverged, a numerical
    # failure; a finite sigma <= 0 is an invalid input
    C = rng.standard_normal((2, 2))
    V = orthonormal(4, 2, rng)
    sigma = np.ones(4)
    sigma[2] = bad
    error, message = (
        (NumericalError, "prior covariance entries must be finite")
        if not np.isfinite(bad)
        else (ConfigurationError, "prior covariance entries must be positive")
    )
    with pytest.raises(error, match=f"^{message}$"):
        WoodburySolver(C, V, sigma)


def test_woodbury_sample_space_dense_oracle(rng):
    # S = diag(r) X with X n x (p+1), p+1 > n, given as V = X' and K = X X'
    X = rng.integers(0, 3, (8, 15)).astype(float)
    r = rng.uniform(0.1, 0.6, 8)
    S = r[:, None] * X
    for sigma in (
        rng.uniform(0.1, 3.0, 15),  # B is every index but one: two blocks
        np.where(rng.random(15) < 0.3, 2.0, 0.02),  # two-valued
        np.full(15, 0.7),  # B is empty
    ):
        solver = WoodburySolver(r, X.T, sigma, gram=X @ X.T)
        assert solver.core_dim == 8
        R = rng.standard_normal((15, 3))
        for rhs in (R[:, 0], R):
            want = dense_woodbury(S, sigma, rhs)
            err = np.linalg.norm(solver.solve(rhs) - want) / np.linalg.norm(want)
            assert err < 1e-8
        u, w = rng.standard_normal(15), rng.standard_normal(8)
        assert np.allclose(solver.left(u), S @ u, atol=1e-12)
        assert np.allclose(solver.left_t(w), S.T @ w, atol=1e-12)


def test_woodbury_sample_space_validation(rng):
    X = rng.standard_normal((4, 6))
    r, K = np.ones(4), X @ X.T
    with pytest.raises(ConfigurationError):
        WoodburySolver(r, X.T, np.ones(6))  # no gram
    with pytest.raises(ConfigurationError):
        WoodburySolver(r[:3], X.T, np.ones(6), gram=K)
    with pytest.raises(ConfigurationError):
        WoodburySolver(r, X.T, np.ones(6), gram=K[:3, :3])
    with pytest.raises(ConfigurationError):
        WoodburySolver(np.eye(4), X.T, np.ones(6), gram=K)


@pytest.mark.parametrize("n, l, sample", [(9, 6, True), (9, 5, False),
                                          (250, 166, False), (250, 167, True)])
def test_sample_space_rule(rng, n, l, sample):
    # truncate_design picks sample space for 3 l >= 2 n, and the design
    # reports the form it stored: in sample space X itself, at its
    # numerical rank n, with nothing dropped
    d = truncate_design(rng.standard_normal((n, 300)), l)
    assert d.sample_space is sample
    assert (d.K is not None) is sample and (d.U is None) is sample
    if sample:
        assert d.rank == n and d.relative_residual_energy == 0.0
    else:
        assert d.rank == l and d.relative_residual_energy > 0.0


def test_sample_space_factors_and_weighted_woodbury(rng):
    X = np.column_stack([np.ones(10), rng.integers(0, 3, (10, 19)).astype(float)])
    design = truncate_design(X, 10)
    assert design.sample_space
    assert design.Xt.flags.c_contiguous and design.Xt.shape == (20, 10)
    assert np.allclose(design.Xt, X.T, atol=1e-10)
    assert np.allclose(design.K, X @ X.T, atol=1e-9)
    assert np.array_equal(design.K, design.K.T)
    W = rng.uniform(0.0, 0.25, 10)
    W[3] = 0.0
    sigma = rng.uniform(0.1, 1.0, 20)
    rhs = rng.standard_normal(20)
    solver = weighted_woodbury(design, W, sigma)
    assert solver.core_dim == 10
    want = dense_woodbury(np.sqrt(W)[:, None] * X, sigma, rhs)
    assert np.allclose(solver.solve(rhs), want, atol=1e-8)
    with pytest.raises(ConfigurationError):
        weighted_woodbury(design, -W, sigma)


def _gram(Cw, design):
    """(C_w V')'(C_w V'), the Gram the rank-space factor stands for."""
    S = Cw @ design.V.T
    return S.T @ S


def test_woodbury_non_finite_core_or_solution_raises(rng):
    V = orthonormal(4, 2, rng)
    C = np.array([[1.0, 0.0], [np.inf, 1.0]])
    with pytest.raises(NumericalError, match="woodbury core"):
        WoodburySolver(C, V, np.ones(4))
    solver = WoodburySolver(rng.standard_normal((2, 2)), V, np.ones(4))
    with pytest.raises(NumericalError, match="non-finite solution"):
        solver.solve_core(np.array([1.0, np.nan]))


def test_weighted_cholesky_non_finite_gram_raises(rng):
    design = truncate_design(rng.standard_normal((6, 3)), 3)
    with pytest.raises(NumericalError, match="weighted Gram"):
        weighted_cholesky(design, np.array([1.0, np.inf, 1.0, 1.0, 1.0, 1.0]))


def test_weighted_cholesky_rejects_sample_space_design(rng):
    design = truncate_design(rng.standard_normal((4, 3)), 3)
    assert design.sample_space and design.U is None
    with pytest.raises(ConfigurationError, match="rank-space"):
        weighted_cholesky(design, np.ones(4))


def test_weighted_cholesky_identity_weights(rng):
    X = rng.standard_normal((10, 6))
    design = truncate_design(X, 6)
    Cw = weighted_cholesky(design, np.ones(10))
    gram = reconstruct(design).T @ reconstruct(design)
    assert np.allclose(_gram(Cw, design), gram, atol=1e-8)
    assert np.array_equal(Cw, np.triu(Cw))


def test_weighted_cholesky_zero_weights(rng):
    X = rng.standard_normal((7, 4))
    design = truncate_design(X, 4)
    Cw = weighted_cholesky(design, np.zeros(7))
    assert np.all(Cw == 0.0)
    assert Cw.shape == (4, 4)


def test_weighted_cholesky_random_weights_dense_oracle(rng):
    X = rng.standard_normal((12, 5))
    design = truncate_design(X, 5)
    W = rng.uniform(0.01, 1.0, 12)
    Cw = weighted_cholesky(design, W)
    dense = X.T @ np.diag(W) @ X
    assert np.allclose(_gram(Cw, design), dense, atol=1e-8)


@pytest.mark.parametrize("space, l", [("rank", 3), ("sample", 9)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_weighted_woodbury_checks_weights_in_both_spaces(rng, space, l, bad):
    design = truncate_design(rng.standard_normal((9, 12)), l)
    assert design.sample_space is (space == "sample")
    W = np.ones(9)
    W[4] = bad
    error, message = (
        (ConfigurationError, "weights must be non-negative") if bad < 0
        else (NumericalError, "weights must be finite")
    )
    with pytest.raises(error, match=f"^{message}$"):
        weighted_woodbury(design, W, np.ones(12))
    with pytest.raises(ConfigurationError, match="^8 weights for 9 individuals$"):
        weighted_woodbury(design, np.ones(8), np.ones(12))


@pytest.mark.parametrize("shape, l", [((1500, 40), 30), ((600, 900), 300),
                                      ((1500, 40), 40)])
def test_blocked_weighted_gram_matches_dense(rng, shape, l):
    # tall (below and at full rank) and wide rank-space designs whose n
    # spans several column blocks
    design = truncate_design(_genotype_matrix(rng, *shape), l)
    assert not design.sample_space and design.n > linalg.COLUMN_BLOCK
    W = rng.uniform(0.0, 0.25, design.n)
    W[::7] = 0.0
    UD = design.U * design.d
    dense = UD.T @ (W[:, None] * UD)
    Cw = weighted_cholesky(design, W)
    assert np.linalg.norm(Cw.T @ Cw - dense) <= 1e-12 * np.linalg.norm(dense)


def test_weighted_cholesky_memory_does_not_grow_with_n(rng):
    # the Gram is summed over column blocks of U' in one l x 512 scratch:
    # no n x l copy of U is scaled
    peaks = []
    for n in (2000, 8000):
        design = truncate_design(_genotype_matrix(rng, n, 61), 61)
        W = rng.uniform(0.05, 0.25, n)
        Cw, peak = _traced_peak(lambda: weighted_cholesky(design, W))
        assert Cw.shape == (61, 61)
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 4096, peaks  # 4 KiB for the blocks' slices


def test_truncated_design_shape_properties(rng):
    design = truncate_design(rng.standard_normal((7, 4)), 2)
    assert isinstance(design, TruncatedDesign)
    assert design.n == 7 and design.p1 == 4 and design.rank == 2


def _genotype_matrix(rng, n, p1):
    return np.column_stack([np.ones(n), rng.integers(0, 3, (n, p1 - 1))]).astype(float)


@pytest.mark.parametrize("shape", [(30, 51), (51, 30), (12, 12), None])
def test_gram_factors_match_svd_oracle(rng, shape):
    # None: the known singular values 4, 2, 1 of the select_rank tests
    X = np.diag([4.0, 2.0, 1.0]) if shape is None else _genotype_matrix(rng, *shape)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    tols = (6.0 / 21.0, 3.0 / 21.0, 0.5 / 21.0, 0.5, 0.1, 0.01, 1e-6, 1e-9, 1e-12)
    for tol in tols:
        design = truncate_design(X, tol=tol)
        l = design.rank
        if not design.sample_space and l == X.shape[1]:  # tall at full rank
            assert np.array_equal(reconstruct(design), X)
            assert np.array_equal(design.d, np.ones(l))
            assert design.relative_residual_energy == 0.0
            continue
        assert np.allclose(design.d, s[:l], rtol=1e-10, atol=0.0)
        want = (U[:, :l] * s[:l]) @ Vt[:l]
        assert np.allclose(reconstruct(design), want, rtol=0.0, atol=1e-10 * s[0])
        if design.sample_space:
            assert np.allclose(design.K, want @ want.T, rtol=0.0, atol=1e-10 * s[0] ** 2)
        resid = np.sum(s[l:] ** 2) / np.sum(s**2)
        assert design.relative_residual_energy == pytest.approx(resid, abs=1e-12)


@pytest.mark.parametrize("shape, l", [((40, 15), 10), ((15, 40), 8), ((60, 21), 21)])
def test_gram_long_side_vectors_orthonormal(rng, shape, l):
    # below full rank; a tall design at full rank holds U = X and V = I
    X = _genotype_matrix(rng, *shape)
    design = truncate_design(X, l)
    assert not design.sample_space
    assert design.U.T.flags.c_contiguous  # U is stored as U'
    if l == shape[1]:
        assert np.array_equal(design.U, X) and np.array_equal(design.V, np.eye(l))
        return
    for M in (design.U, design.V):
        assert np.abs(M.T @ M - np.eye(l)).max() < 1e-10


@pytest.mark.parametrize("shape, l", [((200, 40), None), ((1100, 12), 5),
                                      ((3000, 60), 40), ((3000, 60), None)])
def test_tall_factors_below_full_rank_match_a_blocked_oracle(rng, shape, l):
    # V: the Gram's eigenvectors with their signs; U' = diag(1/d) V' X',
    # one column block of max(l, COLUMN_BLOCK) individuals at a time; to
    # the bit, at an explicit rank and at the default rank_tol
    X = _genotype_matrix(rng, *shape)
    design = truncate_design(X, l, 0.01)
    l = design.rank
    assert not design.sample_space and l < shape[1]
    lam, Q = np.linalg.eigh(X.T @ X)
    d, Q = np.sqrt(lam[::-1][:l]), Q[:, ::-1][:, :l]
    first = np.argmax(np.abs(Q) > 1e-12, axis=0)
    V = Q * np.where(Q[first, np.arange(l)] < 0, -1.0, 1.0)
    blocks = linalg._blocks(shape[0], max(l, linalg.COLUMN_BLOCK))
    Ut = np.hstack([(V.T / d[:, None]) @ X.T[:, cols] for cols in blocks])
    assert np.array_equal(design.d, d) and np.array_equal(design.V, V)
    assert np.array_equal(design.U.T, Ut)


def _duplicated(rng, n, p, dup_rows=(), dup_cols=()):
    G = rng.integers(0, 3, (n, p)).astype(np.int8)
    for a, b in dup_rows:
        G[b] = G[a]
    for a, b in dup_cols:
        G[:, b] = G[:, a]
    return G


@pytest.mark.parametrize("G, rank, sample", [
    # tall, one SNP column duplicated
    (_duplicated(np.random.default_rng(1), 60, 20, dup_cols=[(3, 7)]), 20, False),
    # wide, one individual duplicated
    (_duplicated(np.random.default_rng(2), 20, 50, dup_rows=[(4, 11)]), 19, True),
    # wide, half the individuals duplicated: rank space
    (_duplicated(np.random.default_rng(3), 30, 50,
                 dup_rows=[(i, i + 15) for i in range(15)]), 15, False),
])
def test_rank_cap_on_duplicated_markers_and_individuals(rng, G, rank, sample):
    from spatialboost.em import FilterConfig

    n, p = G.shape
    X = np.column_stack([np.ones(n), G]).astype(float)
    design = FilterConfig(rank=min(n, p + 1)).factor(G, np.arange(p))
    assert design.rank == rank < min(n, p + 1)
    assert design.sample_space is sample
    assert select_rank(X, 1e-15) == truncate_design(X, tol=1e-15).rank == rank
    for name in ("d", "U", "V", "Xt", "K"):
        M = getattr(design, name)
        assert M is None or np.all(np.isfinite(M)), name
    assert np.allclose(reconstruct(design), X, atol=1e-9)
    if not sample:
        for M in (design.U, design.V):
            assert np.abs(M.T @ M - np.eye(rank)).max() < 1e-10
    W = rng.uniform(0.05, 0.25, n)
    sigma = rng.uniform(0.1, 2.0, p + 1)
    rhs = rng.standard_normal(p + 1)
    want = dense_woodbury(np.sqrt(W)[:, None] * X, sigma, rhs)
    got = weighted_woodbury(design, W, sigma).solve(rhs)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8


def test_full_rank_wide_design_keeps_the_design_as_its_xt(rng):
    from spatialboost.em import FilterConfig

    G = rng.integers(0, 3, (25, 60)).astype(np.int8)
    X = np.column_stack([np.ones(25), G]).astype(float)
    for design in (
        FilterConfig(rank=25).factor(G, np.arange(60)),
        FilterConfig(rank_tol=1e-12).factor(G, np.arange(60)),
        truncate_design(X, 25),
    ):
        assert design.sample_space and design.rank == 25
        assert design.U is None and design.V is None
        assert design.Xt.flags.c_contiguous
        assert np.array_equal(design.Xt, X.T)
        assert np.array_equal(design.K, design.K.T)
        assert np.allclose(design.K, X @ X.T, rtol=1e-14)
        assert design.n == 25 and design.p1 == 61


def _traced_peak(fn):
    """fn's return value and the peak bytes numpy and Python allocated
    while it ran, over what was live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _wide_design(rng, n, p1):
    """A float genotype design, intercept first, as X' ((p+1) x n)."""
    return np.ascontiguousarray(_genotype_matrix(rng, n, p1).T)


def test_sample_space_core_build_allocates_no_copy_of_the_design(rng):
    # every sigma_j distinct, so B is every marker but one: a copy of X_B
    # would be 1.4 MiB, the core 28 KiB
    n, p1 = 60, 3000
    Xt = _wide_design(rng, n, p1)
    K = Xt.T @ Xt
    C, sigma = rng.uniform(0.1, 0.5, n), rng.permutation(np.linspace(0.1, 2.0, p1))
    solver, peak = _traced_peak(lambda: WoodburySolver(C, Xt, sigma, gram=K))
    assert solver.core_dim == n
    assert peak < 300 * 1024


def test_sample_space_factor_keeps_its_design_exact(rng):
    # the default rank_tol, and rank 50 of 60, are sample space, where the
    # design is not truncated: the factor holds the exact int8 design at its
    # numerical rank. Beside it the build allocates only the Gram, one
    # block's product, eigvalsh's copy of the Gram and one float block of
    # MARKER_BLOCK markers: well under one float design (1.4 MB)
    from spatialboost.em import FilterConfig

    n, p = 60, 3000
    G = rng.integers(0, 3, (n, p)).astype(np.int8)
    X = np.column_stack([np.ones(n), G]).astype(float)
    block = max(n, linalg.MARKER_BLOCK) * n * 8
    float_design = (p + 1) * n * 8
    for config in (FilterConfig(), FilterConfig(rank=50)):
        design, peak = _traced_peak(lambda: config.factor(G, np.arange(p)))
        assert design.sample_space and design.rank == n
        assert design.relative_residual_energy == 0.0
        assert peak < design.Xt.nbytes + 3 * design.K.nbytes + block + 8192
        assert peak < float_design / 2
        assert design.Xt.dtype == np.int8 and design.Xt.flags.c_contiguous
        assert np.array_equal(design.Xt, X.T)


def test_factor_hands_its_design_to_sample_space_and_keeps_rank_space(rng, monkeypatch):
    # the default rank_tol keeps a rank at or above 2n/3 here: the design
    # is the array factor built, and K its Gram; rank-space factors are the
    # short-side Gram eigenvectors with V's signs, to the bit
    from spatialboost import em

    n, p = 60, 3000
    G = rng.integers(0, 3, (n, p)).astype(np.int8)
    built = []

    def spy(X, *args, **kw):
        built.append(X)
        return truncate_design(X, *args, **kw)

    monkeypatch.setattr(em, "truncate_design", spy)
    design = em.FilterConfig().factor(G, np.arange(p))
    Xt = np.ascontiguousarray(np.column_stack([np.ones(n), G]).astype(float).T)
    assert design.sample_space and np.shares_memory(design.Xt, built[0])
    assert design.relative_residual_energy == 0.0 and np.array_equal(design.Xt, Xt)
    want = Xt.T @ Xt
    assert np.linalg.norm(design.K - want) <= 1e-9 * np.linalg.norm(want)
    design = em.FilterConfig(rank=20).factor(G, np.arange(p))
    lam, Q = np.linalg.eigh(Xt.T @ Xt)
    lam, Q = lam[::-1], Q[:, ::-1]
    d = np.sqrt(lam[:20])
    V = Xt @ Q[:, :20] / d
    first = np.argmax(np.abs(V) > 1e-12, axis=0)
    sign = np.where(V[first, np.arange(20)] < 0, -1.0, 1.0)
    assert not design.sample_space and np.array_equal(design.d, d)
    assert np.array_equal(design.V, V * sign)
    assert np.array_equal(design.U, Q[:, :20] * sign)
    assert design.relative_residual_energy == pytest.approx(lam[20:].sum() / lam.sum())


def test_factor_builds_its_design_in_column_blocks(rng, monkeypatch):
    # the design is the build's only large allocation, in the markers'
    # int8: the selected columns are copied one block at a time, never whole
    from spatialboost import em

    n, p = 60, 3000
    G = rng.integers(0, 3, (n, p)).astype(np.int8)
    columns = np.flatnonzero(rng.random(p) < 0.9)
    monkeypatch.setattr(em, "truncate_design", lambda X, *args, **kw: X.T)
    Xt, peak = _traced_peak(lambda: em.FilterConfig().factor(G, columns))
    block = n * em.FACTOR_BLOCK * G.itemsize
    assert peak <= Xt.nbytes + block + 8192  # 8 KiB for indexing, whatever n, p
    want = np.ascontiguousarray(np.column_stack([np.ones(n, np.int8), G[:, columns]]).T)
    assert Xt.dtype == np.int8 and want.dtype == np.int8
    assert Xt.flags.c_contiguous and Xt.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, l", [((20, 50), 15), ((40, 33), 30), ((40, 15), 8),
                                      ((1100, 12), 12), ((1100, 12), 5)])
def test_truncate_design_leaves_the_callers_design_unmodified(rng, shape, l):
    # wide and tall sample space, then rank space, last over several column
    # blocks at and below full rank
    for X in (_genotype_matrix(rng, *shape), _wide_design(rng, *shape).T):
        before = X.copy()
        design = truncate_design(X, l)
        assert design.sample_space is (3 * l >= 2 * shape[0])
        assert design.sample_space or design.rank == l
        assert np.array_equal(X, before)


@pytest.mark.parametrize("rank", [61, 40])
def test_tall_factor_holds_its_design_at_full_rank(rng, rank, monkeypatch):
    # at full rank U' is the int8 design factor built, cast to float once,
    # with d = 1 and V = I, so the factor holds no second float
    # n x (p+1) array; at either rank the design keeps only U'-sized memory
    # alive
    from spatialboost import em

    n, p = 3000, 60
    G = rng.integers(0, 3, (n, p)).astype(np.int8)
    built = []

    def spy(X, *args, **kw):
        built.append(X)
        return truncate_design(X, *args, **kw)

    monkeypatch.setattr(em, "truncate_design", spy)
    design, peak = _traced_peak(lambda: em.FilterConfig(rank=rank).factor(G, np.arange(p)))
    assert not design.sample_space and design.rank == rank
    Ut = design.U.T
    assert Ut.flags.c_contiguous and Ut.shape == (rank, n)
    assert design.U.base.nbytes == Ut.nbytes
    Xt = np.ascontiguousarray(np.column_stack([np.ones(n), G]).astype(float).T)
    if rank == p + 1:
        assert built[0].dtype == np.int8 and np.array_equal(Ut, Xt)
        assert np.array_equal(design.d, np.ones(rank))
        assert np.array_equal(design.V, np.eye(rank))
        # beside the design: the int8 design, the Gram and one block's
        # product, one float block of max(p + 1, MARKER_BLOCK)
        # individuals, V, and 16 KiB for indexing
        block = (p + 1) * max(p + 1, linalg.MARKER_BLOCK) * 8
        assert peak <= Ut.nbytes + built[0].nbytes + block + 3 * design.V.nbytes + 16384
    # the same factors, to the bit, as a caller's copy of the same X', which
    # is left as it was
    before = Xt.copy()
    want = truncate_design(Xt.T, rank)
    assert np.array_equal(Xt, before)
    for name in ("d", "U", "V"):
        assert np.array_equal(getattr(design, name), getattr(want, name)), name
    assert np.allclose(reconstruct(design), reconstruct(truncate_design(Xt.T.copy(), rank)),
                       rtol=0.0, atol=1e-9)


def _count_eigh(monkeypatch):
    """A list that records each ``np.linalg.eigh`` call from here on."""
    calls, eigh = [], np.linalg.eigh

    def counted(G):
        calls.append(G.shape)
        return eigh(G)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("shape, l, tol, sample", [
    ((25, 61), None, 0.01, True),  # wide, the default rank_tol
    ((25, 61), 20, None, True),  # wide, an explicit rank of 2n/3 or more
    ((40, 33), 30, None, True),  # tall, an explicit rank of 2n/3 or more
    ((40, 33), None, 1e-12, True),  # tall, 3(p+1) >= 2n: the rule decides
    ((25, 61), 5, None, False),  # wide, an explicit rank below 2n/3
    ((200, 21), None, 0.01, False),  # tall, 3(p+1) < 2n
    ((200, 21), 21, None, False),  # tall at full rank
])
def test_eigenvectors_only_in_rank_space(rng, monkeypatch, shape, l, tol, sample):
    # sample space reads the Gram's eigenvalues alone; rank space calls
    # eigh once, after eigvalsh has chosen the rank
    X = _genotype_matrix(rng, *shape)
    calls = _count_eigh(monkeypatch)
    design = truncate_design(X, l, tol)
    assert design.sample_space is sample
    assert len(calls) == (0 if sample else 1)


def test_wide_design_whose_rank_tol_lands_in_rank_space(rng, monkeypatch):
    # a wide design of rank about 5 plus noise: rank_tol picks a rank below
    # 2n/3 from eigvalsh, then eigh's own values give the rank, d, U, V and
    # the residual, to the bit, as an eigh reference on the same Gram does:
    # the Gram summed over blocks of max(n, MARKER_BLOCK) markers (its
    # entries here are not integers, so the blocks' sum is not the one-shot
    # product's)
    n, p1, tol = 60, 400, 1e-3
    X = rng.standard_normal((n, 5)) @ rng.standard_normal((5, p1))
    X += 1e-3 * rng.standard_normal((n, p1))
    Xt = np.ascontiguousarray(X.T)
    calls = _count_eigh(monkeypatch)
    design = truncate_design(Xt.T, tol=tol)
    assert len(calls) == 1 and not design.sample_space
    gram = np.zeros((n, n))
    step = max(n, linalg.MARKER_BLOCK)
    for a in range(0, p1, step):
        B = Xt[a:a + step]
        gram += B.T @ B
    lam, Q = np.linalg.eigh(gram)
    lam, Q = lam[::-1], Q[:, ::-1]
    resid = np.append(np.cumsum(lam[::-1])[::-1][1:], 0.0)
    l = int(np.argmax(resid <= tol * lam.sum())) + 1
    assert design.rank == l and 3 * l < 2 * n
    d = np.sqrt(lam[:l])
    V = Xt @ Q[:, :l]
    V /= d
    first = np.argmax(np.abs(V) > 1e-12, axis=0)
    sign = np.where(V[first, np.arange(l)] < 0, -1.0, 1.0)
    assert np.array_equal(design.d, d)
    assert np.array_equal(design.V, V * sign)
    assert np.array_equal(design.U, Q[:, :l] * sign)
    assert design.relative_residual_energy == pytest.approx(resid[l - 1] / lam.sum())


def test_sample_space_rank_matches_eigh_on_duplicated_rows():
    # the numerical rank from eigvalsh agrees with eigh's on wide designs
    # with duplicated individuals, which are rank deficient
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 60))
        X = _genotype_matrix(rng, n, int(rng.integers(n + 1, 3 * n)))
        for a in rng.choice(n, size=int(rng.integers(1, n // 4)), replace=False):
            X[a] = X[rng.integers(n)]
        design = truncate_design(X, tol=1e-12)
        lam = np.linalg.eigh(X @ X.T)[0][::-1]
        k = int(np.count_nonzero(lam > max(X.shape) * np.finfo(float).eps * lam[0]))
        assert design.sample_space and design.rank == k, seed
        assert k == np.linalg.matrix_rank(X), seed


def _sigma_on(rng, p1, size):
    """A prior variance at its minimum 0.1 off B and above it on B, a random
    set of ``size`` markers."""
    sigma = np.full(p1, 0.1)
    sigma[rng.choice(p1, size, replace=False)] = rng.uniform(0.2, 2.0, size)
    return sigma


def _assert_same_solver(got, want, rng):
    assert np.array_equal(got._core, want._core)
    R = rng.standard_normal((want.V.shape[0], 2))
    assert np.array_equal(got.solve(R), want.solve(R))
    assert np.array_equal(got.solve(R[:, 0]), want.solve(R[:, 0]))
    r = rng.standard_normal((want.core_dim, 2))
    assert np.array_equal(got.solve_core(r), want.solve_core(r))


# |B| = 0, 1, below n, exactly n, and above n (four blocks of the core's sum)
@pytest.mark.parametrize("size", [0, 1, 17, 40, 131])
def test_workspace_core_matches_a_fresh_build_bit_for_bit(rng, size):
    # the workspace first holds a build over every marker but one, so its
    # buffers carry stale data from four blocks and a different C
    n, p1 = 40, 200
    Xt = _wide_design(rng, n, p1)
    K = Xt.T @ Xt
    workspace = Workspace()
    WoodburySolver(rng.uniform(0.1, 0.5, n), Xt, _sigma_on(rng, p1, p1 - 1),
                   gram=K, workspace=workspace)
    C, sigma = rng.uniform(0.1, 0.5, n), _sigma_on(rng, p1, size)
    got = WoodburySolver(C, Xt, sigma, gram=K, workspace=workspace)
    _assert_same_solver(got, WoodburySolver(C, Xt, sigma, gram=K), rng)


def test_successive_workspace_builds_match_fresh_ones(rng):
    # small |B| then large |B| in one workspace, as a chain's sweeps are:
    # each build is checked before the next overwrites its core
    n, p1 = 40, 200
    Xt = _wide_design(rng, n, p1)
    K = Xt.T @ Xt
    workspace = Workspace()
    for size in (3, 150, 40):
        C, sigma = rng.uniform(0.1, 0.5, n), _sigma_on(rng, p1, size)
        got = WoodburySolver(C, Xt, sigma, gram=K, workspace=workspace)
        _assert_same_solver(got, WoodburySolver(C, Xt, sigma, gram=K), rng)


def test_rank_space_build_leaves_the_workspace_unused(rng):
    # a tall rank-space design whose weighted Gram spans three column
    # blocks: its solver, built through weighted_cholesky, is the one a
    # fresh copy of the design builds, bit for bit, and neither those
    # builds nor an EM fit and a chain on it put anything in its buffers
    from spatialboost.em import Hyperparameters, em_fit
    from spatialboost.mcmc import gibbs_run

    design = truncate_design(_genotype_matrix(rng, 1500, 40), 30)
    assert not design.sample_space and design.n > 2 * linalg.COLUMN_BLOCK
    for _ in range(2):
        W, sigma = rng.uniform(0.0, 0.25, 1500), _sigma_on(rng, 40, 25)
        _assert_same_solver(weighted_woodbury(design, W, sigma),
                            weighted_woodbury(replace(design), W, sigma), rng)
    hyper = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-3.0, xi1=2.0)
    y = (rng.random(1500) < 0.5).astype(float)
    boosts = rng.uniform(0.0, 1.0, 39)
    em_fit(design, y, boosts, hyper)
    gibbs_run(design, y, boosts, hyper, iters=5)
    assert not design.workspace._buffers


def test_sample_space_steps_after_the_first_allocate_no_core(rng):
    # a chain's beta draw and an EM fit's CM-beta step at n = 250 build
    # their n x n core in the design's buffers, which the first step
    # allocated: a later step with |B| < n allocates less than one n x n
    # float array, where a step on a fresh copy of the design allocates
    # its core and scratch. Past the first block of B each block's product
    # is still allocated, one at a time, so a step with |B| > n allocates
    # less than two
    from spatialboost.em import Hyperparameters, cm_beta
    from spatialboost.mcmc import sample_beta

    n, p1 = 250, 600
    design = truncate_design(_wide_design(rng, n, p1).T, tol=1e-12)
    assert design.sample_space and design.n == n
    hyper = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-3.0, xi1=2.0)
    y = (rng.random(n) < 0.5).astype(float)
    xty = design.rmatvec(y - 0.5)
    omega = rng.uniform(0.1, 0.3, n)
    theta = (rng.random(p1) < 0.2).astype(np.int8)  # |A| below n
    beta = 0.01 * rng.standard_normal(p1)
    eta = design.matvec(beta)
    few = np.where(theta == 1, rng.uniform(0.0, 1.0, p1), 0.0)  # |B| below n
    every = rng.uniform(0.0, 1.0, p1)  # B is every marker: three blocks
    nn = n * n * 8
    steps = [
        ("sample_beta", nn,
         lambda d: sample_beta(omega, theta, 0.1, d, xty, hyper, rng)),
        ("cm_beta |B| < n", nn, lambda d: cm_beta(d, y, eta, beta, few, 0.1, hyper)),
        ("cm_beta |B| > n", 2 * nn,
         lambda d: cm_beta(d, y, eta, beta, every, 0.1, hyper)),
    ]
    for name, bound, step in steps:
        used = replace(design)
        step(used)
        _, peak = _traced_peak(lambda: step(used))
        _, fresh = _traced_peak(lambda: step(replace(design)))
        assert peak < bound < fresh, (name, peak, fresh)


def test_a_chain_after_an_em_fit_reuses_the_fits_buffers(rng):
    # at n = 250 the EM fit leaves the design's core, scratch and block
    # buffers allocated, so the chain that follows it on the same design
    # allocates no n x n array (|A| stays below n, so no later block's
    # product either), where one on fresh buffers allocates its core and
    # scratch; its draws are those of a chain on a fresh copy, to the bit
    from spatialboost.em import Hyperparameters, em_fit
    from spatialboost.mcmc import gibbs_run

    n, p1 = 250, 600
    design = truncate_design(_wide_design(rng, n, p1).T, tol=1e-12)
    assert design.sample_space and design.n == n
    hyper = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-3.0, xi1=2.0)
    y = (rng.random(n) < 0.5).astype(float)
    boosts = rng.uniform(0.0, 1.0, p1 - 1)
    em_fit(design, y, boosts, hyper)
    got, peak = _traced_peak(lambda: gibbs_run(design, y, boosts, hyper, iters=20))
    want, fresh = _traced_peak(
        lambda: gibbs_run(replace(design), y, boosts, hyper, iters=20))
    assert peak < n * n * 8 < fresh, (peak, fresh)
    for name in ("theta_draws", "beta_draws", "sigma2_draws"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# A sample-space design keeps the int8 X' it was factored from and reads it
# in float64 blocks. The oracles below are the arithmetic of a whole float
# X': each product in one BLAS call, the Gram in one syrk and the core from
# float rows of X'. Each output entry of a blocked product is a whole dot
# product (X u over blocks of individuals, X' w over blocks of markers), and
# an integer's cast is exact, so the products match to the bit; the Gram's
# entries are sums of integer products, exact whatever the blocks.


def _int8_design(rng, n, p1):
    """An int8 genotype X' ((p+1) x n, intercept row first) and its float
    copy."""
    Xt = rng.integers(0, 3, (p1, n)).astype(np.int8)
    Xt[0] = 1
    return Xt, Xt.astype(float)


def _float_core(C, Xf, sigma, K):
    """The sample-space core as a whole float X' builds it: (cC C') o K plus
    T_b T_b' over the blocks b of B that ``linalg._blocks`` cuts, T_b' the
    float rows of X' scaled, plus I."""
    n = Xf.shape[1]
    c = sigma.min()
    B = np.flatnonzero(sigma > c)
    core = np.outer(c * C, C) * K
    for rows in linalg._blocks(B.size, n):
        Tt = Xf[B[rows]] * np.sqrt(sigma[B[rows]] - c)[:, None]
        Tt *= C
        core = core + Tt.T @ Tt
    core.flat[:: n + 1] += 1.0
    return core


# n and p+1 off the block sizes (the last block of each product partial),
# n below one block of individuals, and a tall sample-space design
@pytest.mark.parametrize("n, p1", [(70, 601), (250, 1201), (40, 33), (30, 300)])
def test_int8_design_products_match_the_float_design(rng, n, p1):
    assert n % linalg.INDIVIDUAL_BLOCK and p1 % linalg.MARKER_BLOCK
    Xt, Xf = _int8_design(rng, n, p1)
    design = truncate_design(Xt.T, tol=1e-12)
    assert design.sample_space and np.shares_memory(design.Xt, Xt)
    assert design.Xt.dtype == np.int8
    gram = Xf.T @ Xf if n <= p1 else Xf @ Xf.T
    assert np.array_equal(design.K, Xf.T @ Xf)
    lam = np.linalg.eigvalsh(gram)[::-1]
    assert np.array_equal(design.d, np.sqrt(np.maximum(lam, 0.0))[: design.rank])
    C = rng.uniform(0.1, 0.5, n)
    solver = WoodburySolver(C, design.Xt, _sigma_on(rng, p1, p1 // 3), gram=design.K)
    for u, w in ((rng.standard_normal(p1), rng.standard_normal(n)),
                 (rng.standard_normal((p1, 1)), rng.standard_normal((n, 1))),
                 (rng.standard_normal((p1, 3)), rng.standard_normal((n, 3)))):
        for d in (replace(design), design):  # fresh buffers, then reused ones
            assert np.array_equal(d.matvec(u), Xf.T @ u)
            assert np.array_equal(d.rmatvec(w), Xf @ w)
        assert np.array_equal(solver.left(u), (C * (Xf.T @ u).T).T)
        assert np.array_equal(solver.left_t(w), Xf @ (C * w.T).T)


# |B| = 0, below n, exactly n, and above n; at n = 300 one block of B spans
# two gathers of MARKER_BLOCK rows
@pytest.mark.parametrize("n, p1, size", [(70, 601, 0), (70, 601, 17), (70, 601, 70),
                                         (70, 601, 300), (300, 1201, 290),
                                         (300, 1201, 700)])
def test_int8_design_core_matches_the_float_design(rng, n, p1, size):
    Xt, Xf = _int8_design(rng, n, p1)
    K = Xf.T @ Xf
    C, sigma = rng.uniform(0.1, 0.5, n), _sigma_on(rng, p1, size)
    want = _float_core(C, Xf, sigma, K)
    workspace = Workspace()
    for _ in range(2):  # a fresh workspace, then one a build has filled
        got = WoodburySolver(C, Xt, sigma, gram=K, workspace=workspace)
        assert np.array_equal(got._core, want)
    R = rng.standard_normal(p1)
    SigR = sigma * R
    w = np.linalg.solve(want, C * (Xf.T @ SigR))
    assert np.array_equal(got.solve(R), SigR - sigma * (Xf @ (C * w)))
