import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from spatialboost.errors import ConfigurationError
import spatialboost.genome as genome
from spatialboost.genome import (
    DEFAULT_PHI,
    PHI_GRID,
    Gene,
    GenomicBlock,
    RegionPartition,
    SnpLocus,
    build_blocks,
    compute_boosts,
    correlation_model,
    fit_phi,
    fit_phi_by_region,
    gene_weight,
    partition_regions,
)
from tests.conftest import (
    correlated_columns,
    exhaustive_fit_phi,
    loop_build_blocks,
    loop_compute_boosts,
)


def test_build_blocks_overlap():
    genes = [Gene("a", 10, 30), Gene("b", 20, 40)]
    blocks = build_blocks(genes, np.array([1.0, 3.0]))
    got = [(b.start, b.end, b.relevance) for b in blocks]
    assert got == [(10, 20, 1.0), (20, 30, 2.0), (30, 40, 3.0)]


def test_build_blocks_single_gene_identity():
    blocks = build_blocks([Gene("g", 100, 200)], np.array([5.0]))
    assert [(b.start, b.end, b.relevance) for b in blocks] == [(100, 200, 5.0)]


def test_build_blocks_disjoint():
    genes = [Gene("a", 10, 20), Gene("b", 30, 40)]
    blocks = build_blocks(genes, np.array([1.0, 2.0]))
    assert [(b.start, b.end, b.relevance) for b in blocks] == [
        (10, 20, 1.0),
        (30, 40, 2.0),
    ]


def test_build_blocks_validation():
    with pytest.raises(ConfigurationError):
        build_blocks([Gene("a", 0, 10)], np.array([1.0, 2.0]))
    with pytest.raises(ConfigurationError):
        build_blocks([Gene("a", 0, 10)], np.array([-1.0]))


@pytest.mark.parametrize("seed", range(4))
def test_build_blocks_matches_loop_oracle(seed):
    # overlapping genes on interleaved chromosomes, with shared endpoints and
    # stacks deep enough that the mean sums more than 8 relevances
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 40, 300) * 500
    genes = [
        Gene(f"g{k}", int(a), int(a + w), c)
        for k, (a, w, c) in enumerate(zip(
            starts, rng.integers(1, 30, starts.size) * 500,
            rng.choice(["1", "2", "X"], starts.size),
        ))
    ]
    relevances = rng.uniform(0.0, 3.0, len(genes))
    got = build_blocks(genes, relevances)
    assert got == loop_build_blocks(genes, relevances)
    assert max(
        sum(g.start < b.end and g.end > b.start and g.chromosome == b.chromosome
            for g in genes)
        for b in got
    ) > 8


def test_gene_weight_reference_values():
    assert gene_weight(1000.0, GenomicBlock(980, 995, 1.0), 10.0) == pytest.approx(
        0.29, abs=0.005
    )
    assert gene_weight(1000.0, GenomicBlock(1020, 1030, 1.0), 10.0) == pytest.approx(
        0.02, abs=0.005
    )


def test_gene_weight_indicator_limit():
    assert gene_weight(1000.0, GenomicBlock(980, 1030, 1.0), 1e-6) == pytest.approx(
        1.0, abs=1e-12
    )


def test_gene_weight_decays_to_zero():
    block = GenomicBlock(980, 1030, 1.0)
    width = block.end - block.start
    assert gene_weight(1000.0, block, 1e8 * width) < 1e-3


def test_gene_weight_rejects_bad_phi():
    with pytest.raises(ConfigurationError):
        gene_weight(0.0, GenomicBlock(0, 10, 1.0), 0.0)


def test_compute_boosts_normalizes_to_one():
    snps = [SnpLocus("s1", 100), SnpLocus("s2", 5000)]
    blocks = [GenomicBlock(90, 200, 1.0)]
    boosts = compute_boosts(snps, blocks, 100.0)
    assert boosts.max() == pytest.approx(1.0)
    assert boosts[0] > boosts[1]


def test_compute_boosts_rescale_ratio():
    # raw boosts keep their ratio after rescaling to max 1
    snps = [SnpLocus("s1", 0), SnpLocus("s2", 50)]
    blocks = [GenomicBlock(0, 60, 1.0)]
    boosts = compute_boosts(snps, blocks, 40.0)
    raw = [gene_weight(s.position, blocks[0], 40.0) for s in snps]
    assert boosts[0] / boosts[1] == pytest.approx(raw[0] / raw[1])


def test_compute_boosts_quadrature_oracle():
    snps = [SnpLocus("s1", 1000), SnpLocus("s2", 12000), SnpLocus("s3", 30000)]
    blocks = [GenomicBlock(0, 8000, 1.0), GenomicBlock(15000, 26000, 2.5)]
    phi = 1e4
    raw = np.zeros(3)
    for j, snp in enumerate(snps):
        for blk in blocks:
            mass, _ = quad(
                lambda x: norm.pdf(x, loc=snp.position, scale=phi),
                blk.start,
                blk.end,
            )
            raw[j] += mass * blk.relevance
    expected = raw / raw.max()
    boosts = compute_boosts(snps, blocks, phi)
    assert np.allclose(boosts, expected, atol=1e-6)


@pytest.mark.parametrize("phi", [1e-3, 1.0, 3e4, 1e9])
def test_compute_boosts_matches_loop_oracle_bitwise(phi):
    # chromosome "2" has SNPs and no blocks, "4" blocks and no SNPs; the
    # SNPs of each chromosome are interleaved with the others'
    rng = np.random.default_rng(17)
    chroms = ["1", "2", "3"]
    snps = [
        SnpLocus(f"s{k}", int(pos), chroms[k % 3])
        for k, pos in enumerate(rng.integers(0, 2_000_000, 300))
    ]
    genes = [
        Gene(f"g{k}", int(a), int(a) + int(w), c)
        for k, (a, w, c) in enumerate(zip(
            rng.integers(0, 2_000_000, 40),
            rng.integers(100, 90_000, 40),
            rng.choice(["1", "3", "4"], 40),
        ))
    ]
    blocks = build_blocks(genes, rng.uniform(0.0, 3.0, len(genes)))
    want = loop_compute_boosts(snps, blocks, phi)
    got = compute_boosts(snps, blocks, phi)
    assert got.tobytes() == want.tobytes()
    assert np.all(got[1::3] == 0.0)


def test_compute_boosts_all_zero_warns():
    snps = [SnpLocus("s1", 100, chromosome="2")]
    blocks = [GenomicBlock(0, 10, 1.0, chromosome="1")]
    with pytest.warns(UserWarning):
        boosts = compute_boosts(snps, blocks, 10.0)
    assert boosts.tolist() == [0.0]  # the raw zeros, not rescaled


def test_compute_boosts_empty_blocks_warns():
    with pytest.warns(UserWarning):
        boosts = compute_boosts([SnpLocus("s1", 100)], [], 10.0)
    assert boosts.tolist() == [0.0]


def test_partition_regions_gap_split():
    snps = [SnpLocus("a", 0), SnpLocus("b", 10), SnpLocus("c", 50000)]
    part = partition_regions(snps, [])
    assert part.ranges == [(0, 2), (2, 3)]


def test_partition_regions_gene_merge():
    snps = [SnpLocus("a", 0), SnpLocus("b", 10), SnpLocus("c", 50000)]
    part = partition_regions(snps, [Gene("g", 5, 50005)])
    assert part.ranges == [(0, 3)]


def test_partition_regions_single_region():
    snps = [SnpLocus("a", 0), SnpLocus("b", 10000), SnpLocus("c", 20000)]
    assert partition_regions(snps, []).ranges == [(0, 3)]


def test_partition_regions_chromosome_split():
    snps = [SnpLocus("a", 0, "1"), SnpLocus("b", 10, "2")]
    assert partition_regions(snps, []).ranges == [(0, 1), (1, 2)]


def test_correlation_model_zero_distance():
    assert correlation_model(np.array([0.0]), 100.0)[0] == pytest.approx(1.0)


def test_fit_phi_inverts_single_pair(rng):
    # |corr| = 2 Phi(-1) = 0.3173 at distance 1000 identifies phi = 1000
    target = float(correlation_model(np.array([1000.0]), 1000.0)[0])
    C = np.array([[1.0, target], [target, 1.0]])
    X = correlated_columns(C, 80, rng)
    est = fit_phi(X, np.array([0.0, 1000.0]))
    assert est == pytest.approx(1000.0, rel=0.05)


def test_fit_phi_constant_columns_fall_back():
    X = np.ones((20, 3))
    X[:, 0] = np.arange(20)
    assert fit_phi(X, np.array([0.0, 100.0, 200.0])) == DEFAULT_PHI


def test_fit_phi_shape_mismatch():
    with pytest.raises(ConfigurationError):
        fit_phi(np.ones((5, 3)), np.array([0.0, 1.0]))


def test_fit_phi_by_region(rng):
    phi_star = 5000.0
    pos = np.linspace(0.0, 20000.0, 12)
    d = np.abs(pos[:, None] - pos[None, :])
    C = correlation_model(d, phi_star)
    np.fill_diagonal(C, 1.0)
    X = correlated_columns(C, 100, rng)
    snps = [SnpLocus(f"s{j}", int(p)) for j, p in enumerate(pos)]
    part = fit_phi_by_region(X, snps, RegionPartition([(0, 12)]))
    assert part.phis[0] == pytest.approx(phi_star, rel=0.05)
    assert part.global_phi() == pytest.approx(part.phis[0])


def _decay_region(phi_star, spacing, m=20, n=150):
    """Columns whose correlation decays as 2*Phi(-d/phi_star) at even spacing."""
    pos = np.arange(m) * float(spacing)
    C = correlation_model(np.abs(pos[:, None] - pos[None, :]), phi_star)
    np.fill_diagonal(C, 1.0)
    return correlated_columns(C, n, np.random.default_rng(0)), pos


def _ld_genotypes(n, m, rho, seed):
    """0/1/2 genotypes from two thresholded AR(1) haplotypes."""
    rng = np.random.default_rng(seed)
    haps = []
    for _ in range(2):
        z = rng.standard_normal((n, m))
        for j in range(1, m):
            z[:, j] = rho * z[:, j - 1] + np.sqrt(1 - rho**2) * z[:, j]
        haps.append(z > rng.uniform(-1.0, 1.0, m))
    return haps[0].astype(float) + haps[1]


def _coarse_errors(X, pos, grid=PHI_GRID):
    corr = np.abs(np.corrcoef(X, rowvar=False))
    iu = np.triu_indices(pos.size, k=1)
    d = np.abs(pos[:, None] - pos[None, :])[iu]
    return np.array(
        [np.mean((corr[iu] - correlation_model(d, p)) ** 2) for p in grid]
    )


def _coarse_k(X, pos, grid=PHI_GRID):
    return int(np.argmin(_coarse_errors(X, pos, grid)))


def _sorted_pairs(X, pos):
    """Distances and |correlation| targets of the usable pairs, in fit_phi's
    ascending-distance (stable) order."""
    usable = np.std(X, axis=0) > 0
    X, pos = X[:, usable], pos[usable]
    corr = np.abs(np.corrcoef(X, rowvar=False))
    iu = np.triu_indices(pos.size, k=1)
    d = np.abs(pos[:, None] - pos[None, :])[iu]
    order = np.argsort(d, kind="stable")
    return d[order], corr[iu][order]


def _case(name):
    if name.startswith("phi_star="):
        phi_star = float(name.partition("=")[2])
        return (*_decay_region(phi_star, phi_star / 5), PHI_GRID)
    if name == "coarse_k0":  # decay far faster than the smallest grid phi
        return (*_decay_region(20.0, 40.0), PHI_GRID)
    if name == "coarse_k49":  # decay far slower than the largest grid phi
        return (*_decay_region(5e7, 1e5), PHI_GRID)
    if name == "duplicate_positions":
        pos = np.repeat(np.arange(8) * 3000.0, 2)
        return _ld_genotypes(120, pos.size, 0.7, 3), pos, PHI_GRID
    if name == "far_apart_plateau":  # every model correlation underflows to 0
        X = np.random.default_rng(7).standard_normal((100, 6))
        return X, np.arange(6) * 1e10, PHI_GRID
    if name == "two_usable_columns":
        X = np.ones((60, 4))
        X[:, [1, 3]] = _decay_region(800.0, 500.0, m=2, n=60)[0]
        return X, np.array([0.0, 500.0, 700.0, 1000.0]), PHI_GRID
    if name == "grid_of_3":
        X, pos = _decay_region(3000.0, 1000.0)
        return X, pos, np.array([1e3, 1e4, 1e5])
    if name == "two_minima":  # two clusters 10 Mb apart, decaying at 300 and 1e5
        a = np.arange(20) * 100.0
        b = 1e7 + np.arange(40) * 1e4
        C = np.zeros((a.size + b.size,) * 2)
        C[:a.size, :a.size] = correlation_model(np.abs(a[:, None] - a), 300.0)
        C[a.size:, a.size:] = correlation_model(np.abs(b[:, None] - b), 1e5)
        np.fill_diagonal(C, 1.0)
        X = correlated_columns(C, 150, np.random.default_rng(0))
        return X, np.concatenate([a, b]), PHI_GRID
    if name == "ld_200":  # 200 SNPs in LD, enough pairs for pruning to fire
        return _ld_genotypes(250, 200, 0.9, 5), np.arange(200) * 100.0, PHI_GRID
    seed = int(name.partition("=")[2])  # random LD region
    m = 10 + 3 * seed
    pos = np.sort(np.random.default_rng(seed).integers(0, 200_000, m)).astype(float)
    return _ld_genotypes(100, m, 0.3 + 0.06 * (seed % 10), seed), pos, PHI_GRID


FIT_PHI_CASES = [
    *(f"phi_star={p:g}" for p in (150.0, 2e3, 3e4, 4e5, 8e5)),
    "coarse_k0",
    "coarse_k49",
    "duplicate_positions",
    "far_apart_plateau",
    "two_usable_columns",
    "grid_of_3",
    "two_minima",
    "ld_200",
    *(f"random={s}" for s in range(12)),
]


@pytest.mark.parametrize("name", FIT_PHI_CASES)
def test_fit_phi_matches_exhaustive_scan(name):
    X, pos, grid = _case(name)
    assert fit_phi(X, pos, grid=grid) == exhaustive_fit_phi(X, pos, grid=grid)


def test_fit_phi_cases_reach_grid_ends():
    assert _coarse_k(*_case("coarse_k0")[:2]) == 0
    assert _coarse_k(*_case("coarse_k49")[:2]) == PHI_GRID.size - 1
    # the plateau: no phi on the grid moves the model off 0
    X, pos, _ = _case("far_apart_plateau")
    assert not correlation_model(pos[1:] - pos[:-1], PHI_GRID[-1]).any()
    assert fit_phi(X, pos) == PHI_GRID[0]


def test_fit_phi_two_minima_case():
    # the coarse curve has two separate strict local minima, the global one
    # at the larger phi
    errs = _coarse_errors(*_case("two_minima")[:2])
    inner = np.flatnonzero((errs[1:-1] < errs[:-2]) & (errs[1:-1] < errs[2:])) + 1
    assert inner.size == 2 and inner[1] - inner[0] > 2
    assert np.argmin(errs) == inner[1]


def _evaluated_pairs(monkeypatch, X, pos, grid):
    """Model values fit_phi computes, over all its correlation_model calls."""
    pairs = []
    model = genome.correlation_model

    def counting(distances, phi):
        out = model(distances, phi)
        pairs.append(out.size)
        return out

    monkeypatch.setattr(genome, "correlation_model", counting)
    fit_phi(X, pos, grid=grid)
    return sum(pairs)


@pytest.mark.parametrize("name", ["phi_star=2000", "coarse_k0", "coarse_k49",
                                  "grid_of_3", "two_minima", "ld_200",
                                  "random=4"])
def test_fit_phi_evaluation_count(monkeypatch, name):
    X, pos, grid = _case(name)
    n_pairs = _sorted_pairs(X, pos)[0].size
    assert _evaluated_pairs(monkeypatch, X, pos, grid) <= (grid.size + 16) * n_pairs


def test_fit_phi_prunes_coarse_scan(monkeypatch):
    # with every coarse point evaluated this region takes about 52 model
    # values per pair; the prefix bounds cut that to about 15
    X, pos, grid = _case("ld_200")
    n_pairs = _sorted_pairs(X, pos)[0].size
    assert _evaluated_pairs(monkeypatch, X, pos, grid) < (grid.size + 16) * n_pairs / 2


@pytest.mark.parametrize("name", ["phi_star=150", "coarse_k0", "coarse_k49",
                                  "duplicate_positions", "far_apart_plateau",
                                  "two_minima", "ld_200", "random=7"])
def test_fit_phi_errors_are_full_evaluations(monkeypatch, name):
    # every error fit_phi completes, coarse or fine, has the bits of one
    # np.mean over every pair in ascending distance
    X, pos, grid = _case(name)
    seen = []
    mse, coarse = genome._PairErrors.mse, genome._PairErrors.coarse

    def recording_mse(self, phi):
        seen.append((phi, mse(self, phi)))
        return seen[-1][1]

    def recording_coarse(self, grid):
        errs = coarse(self, grid)
        seen.extend((grid[g], errs[g]) for g in np.flatnonzero(np.isfinite(errs)))
        return errs

    monkeypatch.setattr(genome._PairErrors, "mse", recording_mse)
    monkeypatch.setattr(genome._PairErrors, "coarse", recording_coarse)
    fit_phi(X, pos, grid=grid)
    d, t = _sorted_pairs(X, pos)
    assert seen
    for phi, got in seen:
        assert got == float(np.mean((t - correlation_model(d, phi)) ** 2))


def test_pair_errors_tail_is_bitwise():
    # past x = 8 the model is skipped; a target too small to absorb it
    # (t < 2^-40) still gets the model subtracted
    d = np.linspace(0.0, 20.0, 4001)
    t = np.random.default_rng(3).uniform(0.0, 1.0, d.size)
    t[::7] *= 1e-17
    t[::11] = 0.0
    pairs = genome._PairErrors(d, t)
    for phi in (0.5, 1.0, 1.41, 2.0, 30.0):
        pairs.fill(0, d.size, phi)
        want = (t - correlation_model(d, phi)) ** 2
        assert pairs.err.tobytes() == want.tobytes()


def test_global_phi_requires_fits():
    with pytest.raises(ConfigurationError):
        RegionPartition([(0, 2)]).global_phi()


def test_snp_and_gene_validation():
    with pytest.raises(ConfigurationError):
        SnpLocus("bad", -1)
    with pytest.raises(ConfigurationError):
        Gene("bad", 10, 10)
