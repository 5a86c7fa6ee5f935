"""SNP/gene geometry: proximity weights, boosts, regions, and the range fit.

A marker's prior log-odds of association is raised by nearby relevant genes.
Genes are first broken into non-overlapping blocks (relevance = mean relevance
of the covering genes), each block contributes the Gaussian mass between its
endpoints when a normal curve with sd ``phi`` is centered at the SNP, and the
per-SNP totals are rescaled so the largest boost is exactly 1.

The range phi is fitted per region by least squares between the genotype
correlation magnitudes |r| of marker pairs and 2*Phi(-d/phi) of their
distance d. One streamed pass bins the pairs by log-distance and each phi
is scored on the bins, so memory grows with the SNPs, not the pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from spatialboost._special import SQRT1_2, erfc_nonneg, ndtr
from spatialboost.errors import ConfigurationError

DEFAULT_REGION_GAP = 30_000  # average human gene length, base pairs
DEFAULT_PHI = 30_000.0  # fallback when a region is too small to fit; the phi
# of simulate and study when the config leaves phi unset

# coarse search grid for the range parameter: 50 log-spaced points
PHI_GRID = np.logspace(2.0, 6.0, 50)


@dataclass(frozen=True)
class SnpLocus:
    """A SNP's id, chromosome and base-pair position."""

    id: str
    position: int
    chromosome: str = "1"

    def __post_init__(self):
        if self.position < 0:
            raise ConfigurationError(f"SNP {self.id}: negative position")


@dataclass(frozen=True)
class Gene:
    """A gene's id, chromosome and base-pair extent, start < end."""

    id: str
    start: int
    end: int
    chromosome: str = "1"

    def __post_init__(self):
        if not self.start < self.end:
            raise ConfigurationError(
                f"gene {self.id}: start {self.start} must be < end {self.end}"
            )


@dataclass(frozen=True)
class GenomicBlock:
    """A stretch of a chromosome and the mean relevance of the genes covering it."""

    start: int
    end: int
    relevance: float
    chromosome: str = "1"


@dataclass
class RegionPartition:
    """Contiguous, non-overlapping SNP index ranges covering all SNPs."""

    ranges: list[tuple[int, int]]  # half-open [lo, hi) into the SNP list
    phis: list[float] = field(default_factory=list)  # one per range, once fitted

    def global_phi(self) -> float:
        if not self.phis:
            raise ConfigurationError("no fitted phi values in partition")
        return float(np.mean(self.phis))


def build_blocks(genes: list[Gene], relevances: np.ndarray) -> list[GenomicBlock]:
    """Break possibly-overlapping genes into disjoint blocks per chromosome.

    Block relevance is the arithmetic mean of the relevances of all genes
    covering it (positive-length intersection; endpoint touching does not
    count), taken in gene order. A sweep over the sorted gene endpoints keeps
    the set of genes covering the current block, so the cost grows with the
    blocks times the genes covering each, not times all genes.
    """
    relevances = np.asarray(relevances, dtype=float)
    if relevances.shape != (len(genes),):
        raise ConfigurationError(
            f"relevance length {relevances.size} != gene count {len(genes)}"
        )
    if not np.all(np.isfinite(relevances)) or np.any(relevances < 0):
        raise ConfigurationError("relevances must be finite and >= 0")

    blocks: list[GenomicBlock] = []
    by_chrom: dict[str, list[int]] = {}
    for i, g in enumerate(genes):
        by_chrom.setdefault(g.chromosome, []).append(i)

    for chrom, idx in by_chrom.items():
        opening: dict[int, list[int]] = {}
        closing: dict[int, list[int]] = {}
        for i in idx:
            opening.setdefault(genes[i].start, []).append(i)
            closing.setdefault(genes[i].end, []).append(i)
        cuts = sorted(opening.keys() | closing.keys())
        covering: set[int] = set()
        for a, b in zip(cuts[:-1], cuts[1:]):
            covering.difference_update(closing.get(a, ()))
            covering.update(opening.get(a, ()))
            if covering:
                mean = np.mean(relevances[sorted(covering)])
                blocks.append(GenomicBlock(a, b, float(mean), chrom))
    return blocks


# In double precision ndtr(u) is exactly 0 for u < -37.7 and exactly 1 for
# u > 8.3, so a block's term is exactly 0 for a SNP more than WINDOW * phi
# past its end or LEAD * phi before its start
WINDOW = 40.0
LEAD = 9.0
PAIRS_PER_CALL = 1 << 16  # (block, SNP) pairs per ndtr call, about; bounds memory


def compute_boosts(
    snps: list[SnpLocus], blocks: list[GenomicBlock], phi: float
) -> np.ndarray:
    """Sum block weight times block relevance per SNP, then rescale to max 1.
    When every sum is zero (no gene near any SNP) the zeros are returned
    with a warning, and the inclusion prior falls back to a uniform logit.

    Per chromosome, the SNPs are sorted once and each block's SNPs from
    ``LEAD * phi`` before it to ``WINDOW * phi`` past it are found by
    bisection; every other SNP would get exactly 0. The Gaussian masses
    ndtr((end - s) / phi) - ndtr((start - s) / phi) of those (block, SNP)
    pairs are evaluated in batches of whole SNPs, and each SNP's terms are
    summed in block order. The sums agree to rounding with a per-SNP loop
    that takes Phi from libm's erfc (the tests' oracle); memory grows with
    ``PAIRS_PER_CALL``, not with SNPs x blocks.
    """
    if not snps:
        raise ConfigurationError("at least one SNP required")
    if phi <= 0:
        raise ConfigurationError(f"phi must be positive, got {phi}")

    chrom_of = np.array([snp.chromosome for snp in snps])
    pos = np.array([snp.position for snp in snps], dtype=float)
    raw = np.zeros(len(snps))
    by_chrom: dict[str, list[GenomicBlock]] = {}
    for b in blocks:
        by_chrom.setdefault(b.chromosome, []).append(b)
    for chrom, chrom_blocks in by_chrom.items():
        on = np.flatnonzero(chrom_of == chrom)
        on = on[np.argsort(pos[on], kind="stable")]
        s = pos[on]
        start, end, rel = np.array(
            [(b.start, b.end, b.relevance) for b in chrom_blocks]
        ).T
        lo = np.searchsorted(s, start - LEAD * phi)
        hi = np.searchsorted(s, end + WINDOW * phi, side="right")
        # SNP k lies in the windows of the blocks with lo <= k < hi
        per_snp = np.cumsum(np.bincount(lo, minlength=s.size + 1)
                            - np.bincount(hi, minlength=s.size + 1))[:-1]
        cuts = np.searchsorted(
            np.cumsum(per_snp), np.arange(PAIRS_PER_CALL, per_snp.sum(), PAIRS_PER_CALL)
        ).tolist()
        for a, z in zip([0, *cuts], [*cuts, s.size]):  # the sorted SNPs a..z-1
            first = np.clip(lo, a, z)
            count = np.clip(hi, a, z) - first
            blk = np.repeat(np.arange(count.size), count)  # in block order
            k = np.arange(blk.size) + np.repeat(first - np.cumsum(count) + count, count)
            d = s[k]
            mass = ndtr((end[blk] - d) / phi) - ndtr((start[blk] - d) / phi)
            raw[on[a:z]] = np.bincount(k - a, mass * rel[blk], minlength=z - a)

    top = raw.max() if raw.size else 0.0
    if top <= 0.0:
        warnings.warn(
            "all raw boosts are zero (no genes near any SNP); returning "
            "unnormalized boosts",
            stacklevel=2,
        )
        return raw
    return raw / top


def partition_regions(snps: list[SnpLocus], genes: list[Gene]) -> RegionPartition:
    """Split SNPs at positional gaps >= DEFAULT_REGION_GAP, then merge
    adjacent regions whose spans intersect a common gene. Chromosome
    boundaries always split."""
    if not snps:
        return RegionPartition([])

    ranges: list[tuple[int, int]] = []
    lo = 0
    for k in range(1, len(snps)):
        new_chrom = snps[k].chromosome != snps[k - 1].chromosome
        if new_chrom or snps[k].position - snps[k - 1].position >= DEFAULT_REGION_GAP:
            ranges.append((lo, k))
            lo = k
    ranges.append((lo, len(snps)))

    def span(r: tuple[int, int]) -> tuple[str, int, int]:
        lo, hi = r
        return (
            snps[lo].chromosome,
            snps[lo].position,
            snps[hi - 1].position,
        )

    def share_gene(r1, r2) -> bool:
        c1, a1, b1 = span(r1)
        c2, a2, b2 = span(r2)
        if c1 != c2:
            return False
        for g in genes:
            if g.chromosome != c1:
                continue
            if g.start <= b1 and g.end >= a1 and g.start <= b2 and g.end >= a2:
                return True
        return False

    merged = [ranges[0]]
    for r in ranges[1:]:
        if share_gene(merged[-1], r):
            merged[-1] = (merged[-1][0], r[1])
        else:
            merged.append(r)
    return RegionPartition(merged)


def correlation_model(distances: np.ndarray, phi: float) -> np.ndarray:
    """Modeled correlation magnitude 2*Phi(-d/phi) = erfc(|d| / (phi sqrt 2))
    as a function of distance; fastest with the distances in ascending order."""
    return erfc_nonneg(np.abs(distances) / phi * SQRT1_2)


_BLOCK_ROWS = 256  # SNPs per row block of fit_phi's pass over the pairs
_BINS_PER_DECADE = 256  # log-distance bins; sets fit_phi's error bound


def _distance_bins(X: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, float]:
    """Bin every pair of the non-constant (n x m) columns X at positions pos
    by log-distance: d > 0 in floor(_BINS_PER_DECADE log10 d), d = 0 in bin
    0. Returns the rows pair count, sum d, sum |r| and sum |r| d per bin,
    bins ascending, and sum r^2 over all the pairs.

    X may be the int8 genotypes: the column means are their exact integer
    sums over n, and the one float copy of X is centred and scaled in place.
    """
    Z = X.T.astype(float)  # one row per SNP
    Z -= (X.sum(axis=0) / X.shape[0])[:, None]
    Z /= np.sqrt(np.einsum("ij,ij->i", Z, Z))[:, None]  # Z Z' = corr
    ps = np.sort(pos, kind="stable")
    gaps = np.diff(ps)
    if gaps.any():
        d_lo, d_hi = gaps[gaps > 0].min(), ps[-1] - ps[0]
        lo, hi = np.floor(_BINS_PER_DECADE * np.log10([d_lo, d_hi]))
    else:  # every pair at d = 0
        lo = hi = 0.0
    n_bins = int(hi - lo) + 2
    sums = np.zeros((4, n_bins))
    r2 = 0.0

    def add(r: np.ndarray, d: np.ndarray) -> None:  # overwrites r, d
        nonlocal r2
        np.abs(r, out=r)
        np.abs(d, out=d)
        with np.errstate(divide="ignore"):  # log10(0) = -inf: bin 0
            k = np.log10(d)
        k *= _BINS_PER_DECADE
        np.floor(k, out=k)
        k -= lo - 1.0
        at = np.clip(k, 0, n_bins - 1, out=k).astype(np.intp)
        rd = np.multiply(r, d, out=k)  # k's float buffer, once cast
        for row, w in zip(sums, (None, d, r, rd)):
            row += np.bincount(at, w, minlength=n_bins)
        r2 += float(r @ r)

    m = pos.size
    upper = np.triu(np.ones((min(m, _BLOCK_ROWS),) * 2, dtype=bool), 1)
    for a in range(0, m, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, m)
        Za, pa, tri = Z[a:b], pos[a:b, None], upper[:b - a, :b - a]
        add((Za @ Za.T)[tri], (pa - pos[a:b])[tri])
        add((Za @ Z[b:].T).ravel(), (pa - pos[b:]).ravel())
    return sums, r2


def _binned_errors(sums: np.ndarray, r2: float):
    """fit_phi's binned error as a function of an array of phis. The f_b and
    g_b distances are merged into one ascending array x, with weights N_b
    and S_b, so each phi takes one model call."""
    n, d_sum, s, rd_sum = sums[:, sums[0] > 0]
    d = d_sum / n
    d_r = np.divide(rd_sum, s, out=d.copy(), where=s > 0)
    x = np.concatenate((d, d_r))
    order = np.argsort(x, kind="stable")
    x, zeros = x[order], np.zeros(n.size)
    w_f = np.concatenate((n, zeros))[order]
    w_g = np.concatenate((zeros, s))[order]
    total = n.sum()

    def errors(phis: np.ndarray) -> np.ndarray:
        v = correlation_model(x, np.asarray(phis, dtype=float)[:, None])
        return (r2 - 2.0 * (v @ w_g) + (v * v) @ w_f) / total

    return errors


def fit_phi(
    genotype_columns: np.ndarray,
    positions: np.ndarray,
    grid: np.ndarray = PHI_GRID,
) -> float:
    """Fit the range parameter to the decay of genotype correlation.

    Minimizes the mean squared error between pairwise sample correlation
    magnitudes t and the model f = 2*Phi(-d/phi). A coarse pass picks the
    first minimizer k of the error over ``grid``. The fine pass searches 200
    log-spaced points from grid[k-1] to grid[k+1] (clipped at the ends) by
    bisection for the smallest index i with err(i) <= err(i+1), or the last
    point if none qualifies. The bisection assumes the error is unimodal on
    that bracket, as the coarse-then-local design does; there it returns the
    exhaustive scan's first (smallest) minimizer, so the smallest minimizer
    still wins on ties. Each fine point is evaluated at most once, at most
    16 of them. Constant columns are excluded; regions with fewer than two
    usable columns fall back to DEFAULT_PHI.

    The errors come from one pass over the pairs, |r| taken in row blocks
    of at most 256 SNPs, into log-distance bins (256 per decade, d = 0 in a
    bin of its own) that keep the pair count N_b, sum d, S_b = sum |r| and
    sum |r| d; no pair list is stored. The error at phi is (sum r^2 -
    2 sum_b g_b S_b + sum_b N_b f_b^2) / N, f_b the model at the bin's mean
    distance and g_b at its |r|-weighted mean distance. Both cancel the
    first-order binning error, so bins spanning a distance ratio
    rho = 10^(1/256) keep the binned error within 2.1 (rho - 1)^2 = 1.7e-4
    of the exact per-pair mean at any phi; on the benchmark's gwas_wide
    regions it is within 1.3e-6. The coarse grid is scored in one call.
    """
    X = np.asarray(genotype_columns)
    positions = np.asarray(positions, dtype=float)
    if X.ndim != 2 or X.shape[1] != positions.size:
        raise ConfigurationError("genotype columns and positions misaligned")

    usable = X.max(axis=0) > X.min(axis=0)  # the non-constant columns
    if usable.sum() < 2:
        return DEFAULT_PHI
    errors = _binned_errors(*_distance_bins(X[:, usable], positions[usable]))

    errs = errors(grid)
    k = int(np.argmin(errs))  # argmin returns the first (smallest) minimizer
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    fine = np.logspace(np.log10(lo), np.log10(hi), 200)
    fine_errs: dict[int, float] = {}

    def fine_err(i: int) -> float:
        if i not in fine_errs:
            fine_errs[i] = float(errors(fine[i:i + 1])[0])
        return fine_errs[i]

    a, b = 0, fine.size - 1  # the answer lies in [a, b]
    while a < b:
        mid = (a + b) // 2
        if fine_err(mid) <= fine_err(mid + 1):
            b = mid
        else:
            a = mid + 1
    return float(fine[a])


def fit_phi_by_region(
    genotype_columns: np.ndarray,
    snps: list[SnpLocus],
    partition: RegionPartition,
) -> RegionPartition:
    """Fit phi independently for every region of the partition."""
    positions = np.array([s.position for s in snps], dtype=float)
    phis = []
    for lo, hi in partition.ranges:
        phis.append(fit_phi(genotype_columns[:, lo:hi], positions[lo:hi]))
    return RegionPartition(list(partition.ranges), phis)
