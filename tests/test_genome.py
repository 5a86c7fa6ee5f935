import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from spatialboost._special import ndtr
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
    partition_regions,
)
from spatialboost.pipeline import load_genotypes
from tests.conftest import (
    correlated_columns,
    exhaustive_fit_phi,
    float_copy_distance_bins,
    float_copy_fit_phi,
    gene_weight,
    loop_build_blocks,
    loop_compute_boosts,
    peak_bytes,
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
def test_gene_weight_is_exactly_zero_beyond_the_window(phi):
    # 1000 blocks, each with a SNP WINDOW * phi or more past its end, one as
    # far before its start, and one LEAD * phi or more before its start;
    # the first SNP of each kind sits exactly at the bound
    rng = np.random.default_rng(23)
    start = rng.integers(0, 1_000_000, 1000)
    end = start + rng.integers(1, 100_000, 1000)
    extra = rng.uniform(0.0, 1.0, 1000)
    extra[0] = 0.0
    s = np.concatenate([
        end + genome.WINDOW * phi * (1.0 + extra),
        start - genome.WINDOW * phi * (1.0 + extra),
        start - genome.LEAD * phi * (1.0 + extra),
    ])
    start, end = np.tile(start, 3), np.tile(end, 3)
    weights = [
        gene_weight(sj, GenomicBlock(int(a), int(b), 1.0), phi)
        for sj, a, b in zip(s, start, end)
    ]
    assert all(w == 0.0 for w in weights)
    # compute_boosts' term for the pair
    assert np.all(ndtr((end - s) / phi) - ndtr((start - s) / phi) == 0.0)


@pytest.mark.parametrize("phi", [1e-3, 1.0, 3e4, 1e9])
def test_compute_boosts_matches_loop_oracle_to_rounding(phi, monkeypatch):
    # chromosome "2" has SNPs and no blocks, "4" blocks and no SNPs; the
    # SNPs of each chromosome are interleaved with the others', and two
    # SNPs of chromosome "1" share a position
    rng = np.random.default_rng(17)
    chroms = ["1", "2", "3"]
    snps = [
        SnpLocus(f"s{k}", int(pos), chroms[k % 3])
        for k, pos in enumerate(rng.integers(0, 2_000_000, 300))
    ]
    snps += [SnpLocus("t0", 1_000_000, "1"), SnpLocus("t1", 1_000_000, "1")]
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
    # each mass, from ndtr or from gene_weight, is within about 2 eps of the
    # exact one, so the two raw sums differ by at most 4 eps times the
    # chromosome's total relevance
    top = max(
        sum(gene_weight(snp.position, b, phi) * b.relevance
            for b in blocks if b.chromosome == snp.chromosome)
        for snp in snps
    )
    eps = np.finfo(float).eps
    for chrom in chroms:
        on = np.array([snp.chromosome == chrom for snp in snps])
        total = sum(b.relevance for b in blocks if b.chromosome == chrom)
        bound = 4 * eps * total / top
        assert np.all(np.abs(got[on] - want[on]) <= bound), chrom
    assert np.all(got[1:300:3] == 0.0)
    assert got[-2] == got[-1]
    # the windows skip only exact zeros, and the batches split no SNP's sum
    monkeypatch.setattr(genome, "WINDOW", np.inf)
    monkeypatch.setattr(genome, "LEAD", np.inf)
    monkeypatch.setattr(genome, "PAIRS_PER_CALL", 7)
    assert compute_boosts(snps, blocks, phi).tobytes() == got.tobytes()


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


def _pairs(X, pos):
    """Distances and |correlation| targets of the usable pairs."""
    usable = np.std(X, axis=0) > 0
    X, pos = X[:, usable], pos[usable]
    corr = np.abs(np.corrcoef(X, rowvar=False))
    iu = np.triu_indices(pos.size, k=1)
    return np.abs(pos[:, None] - pos[None, :])[iu], corr[iu]


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


def _model_values(monkeypatch, X, pos, grid):
    """Model values fit_phi computes, over all its correlation_model calls."""
    values = []
    model = genome.correlation_model

    def counting(distances, phi):
        out = model(distances, phi)
        values.append(out.size)
        return out

    monkeypatch.setattr(genome, "correlation_model", counting)
    fit_phi(X, pos, grid=grid)
    return sum(values)


@pytest.mark.parametrize("name", ["phi_star=2000", "coarse_k0", "coarse_k49",
                                  "grid_of_3", "two_minima", "ld_200",
                                  "random=4"])
def test_fit_phi_evaluation_count(monkeypatch, name):
    # each phi takes the model at two distances per occupied bin at most,
    # however many pairs share a bin
    X, pos, grid = _case(name)
    usable = np.std(X, axis=0) > 0
    occupied = np.count_nonzero(genome._distance_bins(X[:, usable], pos[usable])[0][0])
    assert occupied <= _pairs(X, pos)[0].size
    assert _model_values(monkeypatch, X, pos, grid) <= (grid.size + 16) * 2 * occupied


# 2.1 (rho - 1)^2 for bins spanning the distance ratio rho (fit_phi)
BINNING_BOUND = 2.1 * (10.0 ** (1.0 / genome._BINS_PER_DECADE) - 1.0) ** 2


@pytest.mark.parametrize("name", FIT_PHI_CASES)
def test_fit_phi_errors_are_full_evaluations(monkeypatch, name):
    # every error fit_phi scores, coarse or fine, covers every pair: it is
    # within the binning bound of one mean over all the pairs
    X, pos, grid = _case(name)
    seen = []
    binned_errors = genome._binned_errors

    def recording_binned_errors(sums, r2):
        errors = binned_errors(sums, r2)

        def recorded(phis):
            out = errors(phis)
            seen.extend(zip(phis, out))
            return out

        return recorded

    monkeypatch.setattr(genome, "_binned_errors", recording_binned_errors)
    fit_phi(X, pos, grid=grid)
    d, t = _pairs(X, pos)
    assert len(seen) > grid.size
    for phi, got in seen:
        exact = float(np.mean((t - correlation_model(d, phi)) ** 2))
        assert abs(got - exact) <= BINNING_BOUND


@pytest.mark.parametrize("name", ["random=3", "random=8", "random=11"])
def test_binned_error_is_second_order_in_bin_width(monkeypatch, name):
    # taking g_b at the |r|-weighted mean distance cancels the first-order
    # term, so each halving of the bins' log-width cuts the largest gap to
    # the exact errors about 4x; a model taken at the plain mean distance in
    # the cross term leaves a first-order gap, cut about 2x or less
    X, pos, _ = _case(name)
    d, t = _pairs(X, pos)
    phis = np.logspace(2.0, 6.0, 200)
    exact = np.array([np.mean((t - correlation_model(d, p)) ** 2) for p in phis])
    gaps = []
    for per_decade in (32, 64, 128):
        monkeypatch.setattr(genome, "_BINS_PER_DECADE", per_decade)
        binned = genome._binned_errors(*genome._distance_bins(X, pos))(phis)
        gaps.append(np.abs(binned - exact).max())
    assert gaps[0] > 3 * gaps[1] > 9 * gaps[2]


def test_distance_bins_match_pair_sums():
    # 300 SNPs take two row blocks, and repeated positions put pairs at d = 0
    m = 300
    pos = np.sort(np.random.default_rng(4).integers(0, 60_000, m)).astype(float)
    pos[100:104] = pos[100]
    pos[255:258] = pos[255]  # duplicates across the block boundary
    X = _ld_genotypes(80, m, 0.8, 4)
    assert np.std(X, axis=0).all() and m > genome._BLOCK_ROWS
    (count, d_sum, r_sum, rd_sum), r2 = genome._distance_bins(X, pos)

    d, t = _pairs(X, pos)
    key = np.full(d.size, -np.inf)  # d = 0 sorts first, into its own bin
    key[d > 0] = np.floor(genome._BINS_PER_DECADE * np.log10(d[d > 0]))
    _, at = np.unique(key, return_inverse=True)
    on = count > 0
    assert (d == 0).sum() >= 9 and count[0] == (d == 0).sum()
    assert count.sum() == d.size == m * (m - 1) // 2
    assert np.array_equal(count[on], np.bincount(at))
    for got, w in ((d_sum, d), (r_sum, t), (rd_sum, t * d)):
        np.testing.assert_allclose(got[on], np.bincount(at, w), rtol=1e-12)
    assert r2 == pytest.approx(float(t @ t), rel=1e-12)


def test_fit_phi_memory_grows_linearly_in_snps():
    # m (m - 1) / 2 pairs, but the pass holds the region's columns and one
    # row block of pairs: at m = 3000 one m x m float matrix alone is 72 MB
    n, peaks = 40, {}
    for m in (1500, 3000):
        X = _ld_genotypes(n, m, 0.9, 6)
        pos = np.arange(m) * 37.0
        peaks[m] = peak_bytes(lambda: fit_phi(X, pos))
    assert peaks[3000] < 8 * 3000 * (4 * n + 8 * genome._BLOCK_ROWS)
    assert peaks[3000] < 2.5 * peaks[1500]  # 4x if it grew as m^2


def _int8_region(tmp_path, name):
    """An int8 region and its positions: LD genotypes with constant columns,
    loaded from a genotype file whose missing cells load_genotypes imputes
    when ``name`` asks for them."""
    seed = int(name.rpartition("=")[2])
    rng = np.random.default_rng(seed)
    n, m = 40 + 20 * seed, 300 if name.startswith("ld") else 6
    G = _ld_genotypes(n, m, 0.6 + 0.05 * seed, seed).astype(np.int8)
    pos = np.sort(rng.integers(0, 400_000, m))
    pos[1:4] = pos[1]  # pairs at d = 0
    const = rng.choice(m, size=m // 10 or 1, replace=False)
    if name.startswith("one_usable"):
        const = np.arange(1, m)
    elif name.startswith("two_usable"):
        const = np.arange(2, m)
    G[:, const] = rng.integers(0, 3, const.size)
    cells = G.astype("U1")
    if name.startswith("ld_imputed"):
        missing = rng.random(G.shape) < 0.03
        missing[:, const] = False  # keep them constant
        cells[missing] = "."
    path = tmp_path / "region.tsv"
    header = "\t".join(f"rs{j}:1:{pos[j]}" for j in range(m))
    body = "".join(f"{k % 2}\t" + "\t".join(row) + "\n"
                   for k, row in enumerate(cells))
    path.write_text(f"#pheno\t{header}\n{body}")
    ds = load_genotypes(str(path))
    assert (ds.imputed > 0) == name.startswith("ld_imputed")
    return ds.G, np.array([s.position for s in ds.snps], dtype=float)


INT8_REGIONS = [
    *(f"ld={s}" for s in range(4)),
    *(f"ld_imputed={s}" for s in range(4)),
    "one_usable=1",
    "two_usable=2",
    "two_usable=5",
]


@pytest.mark.parametrize("name", INT8_REGIONS)
def test_fit_phi_on_int8_matches_the_float_copy_route(tmp_path, name):
    # the bins built from the int8 columns, and so phi, equal the float64
    # route's to the bit
    G, pos = _int8_region(tmp_path, name)
    assert G.dtype == np.int8
    usable = np.std(G.astype(float), axis=0) > 0
    kept = {"one": 1, "two": 2}.get(name.partition("_")[0])
    assert usable.sum() == kept if kept else 2 < usable.sum() < usable.size
    got, want = fit_phi(G, pos), float_copy_fit_phi(G, pos)
    assert got.hex() == want.hex()
    if kept == 1:
        assert got == DEFAULT_PHI
        return
    sums, r2 = genome._distance_bins(G[:, usable], pos[usable])
    want_sums, want_r2 = float_copy_distance_bins(G[:, usable], pos[usable])
    assert sums.tobytes() == want_sums.tobytes() and r2.hex() == want_r2.hex()


def test_fit_phi_int8_region_holds_one_float_copy():
    # the region's one float64 copy, centred and scaled in place, and four
    # row blocks of pairs: |r|, d, the log-bin buffer (which then holds
    # |r| d) and its intp cast; float_copy_fit_phi holds three copies
    n, m = 200, 3000
    G = _ld_genotypes(n, m, 0.9, 6).astype(np.int8)
    pos = np.arange(m) * 37.0
    one_copy, block = 8 * n * m, 8 * genome._BLOCK_ROWS * m
    peak = peak_bytes(lambda: fit_phi(G, pos))
    assert peak < one_copy + 4 * block + 2**20


def test_global_phi_requires_fits():
    with pytest.raises(ConfigurationError):
        RegionPartition([(0, 2)]).global_phi()


def test_snp_and_gene_validation():
    with pytest.raises(ConfigurationError):
        SnpLocus("bad", -1)
    with pytest.raises(ConfigurationError):
        Gene("bad", 10, 10)
