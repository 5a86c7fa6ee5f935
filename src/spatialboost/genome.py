"""SNP/gene geometry: proximity weights, boosts, regions, and the range fit.

A marker's prior log-odds of association is raised by nearby relevant genes.
Genes are first broken into non-overlapping blocks (relevance = mean relevance
of the covering genes), each block contributes the Gaussian mass between its
endpoints when a normal curve with sd ``phi`` is centered at the SNP, and the
per-SNP totals are rescaled so the largest boost is exactly 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from spatialboost._special import SQRT1_2, erfc_nonneg
from spatialboost.errors import ConfigurationError

DEFAULT_REGION_GAP = 30_000  # average human gene length, base pairs
DEFAULT_PHI = 30_000.0  # fallback when a region is too small to fit; the phi
# of simulate and study when the config leaves phi unset

# coarse search grid for the range parameter: 50 log-spaced points
PHI_GRID = np.logspace(2.0, 6.0, 50)


@dataclass(frozen=True)
class SnpLocus:
    id: str
    position: int
    chromosome: str = "1"

    def __post_init__(self):
        if self.position < 0:
            raise ConfigurationError(f"SNP {self.id}: negative position")


@dataclass(frozen=True)
class Gene:
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


def gene_weight(s_j: float, block: GenomicBlock, phi: float) -> float:
    """Gaussian mass of N(s_j, phi^2) over [block.start, block.end], as
    Phi(b) - Phi(a) with Phi(u) = erfc(-u / sqrt 2) / 2."""
    if phi <= 0:
        raise ConfigurationError(f"phi must be positive, got {phi}")
    scale = SQRT1_2 / phi
    return 0.5 * (
        math.erfc((s_j - block.end) * scale) - math.erfc((s_j - block.start) * scale)
    )


# libm's erfc, elementwise: gene_weight's values to the bit
_libm_erfc = np.frompyfunc(math.erfc, 1, 1)


def compute_boosts(
    snps: list[SnpLocus], blocks: list[GenomicBlock], phi: float
) -> np.ndarray:
    """Sum block weight times block relevance per SNP, then rescale to max 1.
    When every sum is zero (no gene near any SNP) the zeros are returned
    with a warning, and the inclusion prior falls back to a uniform logit.

    Per chromosome, each block's weights for all its SNPs are evaluated at
    once with ``gene_weight``'s arithmetic and libm's erfc, and the weighted
    rows are added in block order, so the sums equal a per-SNP loop over
    ``gene_weight`` bit for bit. Memory grows with the SNP count, not with
    SNPs x blocks.
    """
    if not snps:
        raise ConfigurationError("at least one SNP required")
    if phi <= 0:
        raise ConfigurationError(f"phi must be positive, got {phi}")

    scale = SQRT1_2 / phi
    chrom_of = np.array([snp.chromosome for snp in snps])
    pos = np.array([snp.position for snp in snps])
    raw = np.zeros(len(snps))
    by_chrom: dict[str, list[GenomicBlock]] = {}
    for b in blocks:
        by_chrom.setdefault(b.chromosome, []).append(b)
    for chrom, chrom_blocks in by_chrom.items():
        on = np.flatnonzero(chrom_of == chrom)
        if not on.size:
            continue
        s = pos[on]
        total = np.zeros(on.size)
        for b in chrom_blocks:  # block order, as a per-SNP running sum
            edges = np.stack(((s - b.end) * scale, (s - b.start) * scale))
            e_end, e_start = _libm_erfc(edges).astype(float)
            total += 0.5 * (e_end - e_start) * b.relevance
        raw[on] = total

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


# fit_phi's search. Past x = d / (phi sqrt 2) >= _TAIL_X the model is below
# erfc(8) = 1.1e-29, which leaves t - f == t for every target t >= _TINY_T,
# so such a pair's squared error is t^2 without evaluating the model.
_TAIL_X = 8.0
_TINY_T = 2.0**-40
# The coarse scan bounds every grid point by its error sum over the first
# max(_HEAD_MIN, N // _HEAD_DIV) distance-sorted pairs (at most _BATCH_CELLS
# model values per call), then completes the points in order of that bound,
# doubling the prefix, and drops a point once its prefix sum plus its t^2
# tail exceeds the best complete sum by the relative margin _PRUNE_MARGIN.
_HEAD_MIN = 1024
_HEAD_DIV = 16
_BATCH_CELLS = 1 << 15
_PRUNE_MARGIN = 1e-9


class _PairErrors:
    """Squared errors (t - 2 Phi(-d/phi))^2 of distance-sorted pairs, with
    the model evaluated only where it can change an entry: before the first
    pair at x >= _TAIL_X, and past it at the pairs with t < _TINY_T."""

    def __init__(self, dists: np.ndarray, target: np.ndarray):
        self.d = dists
        self.t = target
        tiny = target < _TINY_T
        self.tiny = np.flatnonzero(tiny)
        # every tail error that is t^2 whatever phi is; 0 at the tiny targets
        self.t2 = np.where(tiny, 0.0, target * target)
        self.err = np.empty(dists.size)

    def tail(self, phi: float) -> int:
        """Index of the first pair at x >= _TAIL_X."""
        return int(np.searchsorted(self.d, _TAIL_X / SQRT1_2 * phi))

    def fill(self, a: int, b: int, phi: float) -> None:
        """Write the squared errors of pairs [a, b) at phi into ``err``."""
        d, t, err = self.d, self.t, self.err
        c = min(max(self.tail(phi), a), b)
        err[a:c] = (t[a:c] - correlation_model(d[a:c], phi)) ** 2
        err[c:b] = self.t2[c:b]
        k = self.tiny[slice(*np.searchsorted(self.tiny, (c, b)))]
        if k.size:
            err[k] = (t[k] - correlation_model(d[k], phi)) ** 2

    def mse(self, phi: float) -> float:
        self.fill(0, self.d.size, phi)
        return float(np.mean(self.err))

    def coarse(self, grid: np.ndarray) -> np.ndarray:
        """MSE at each grid point, or inf where a partial sum proves the
        point's error larger than the smallest one."""
        n, d, t = self.d.size, self.d, self.t
        head = min(n, max(_HEAD_MIN, n // _HEAD_DIV))
        rows = max(1, _BATCH_CELLS // head)
        bound = np.concatenate([
            ((t[:head] - correlation_model(d[:head], grid[g:g + rows, None]))
             ** 2).sum(axis=1)
            for g in range(0, grid.size, rows)
        ])
        errs = np.full(grid.size, np.inf)
        best = np.inf
        for g in np.argsort(bound, kind="stable"):
            limit = best * n * (1.0 + _PRUNE_MARGIN)
            if bound[g] > limit:
                break  # every later bound is at least as large
            phi = grid[g]
            c = self.tail(phi)
            if bound[g] + float(np.sum(self.t2[max(c, head):])) > limit:
                continue  # the head and the fixed tail errors suffice
            # the model pairs [0, a) plus the fixed tail errors
            a, b = 0, min(2 * head, c)
            partial = float(np.sum(self.t2[c:]))
            while a < c and partial <= limit:
                self.fill(a, b, phi)
                partial += float(np.sum(self.err[a:b]))
                a, b = b, min(2 * b, c)
            if a >= c:
                self.fill(c, n, phi)
                errs[g] = float(np.mean(self.err))
                best = min(best, errs[g])
        return errs


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

    Every error is one ``np.mean`` over all pairs in ascending distance, the
    same bits as a full evaluation, but the model is evaluated only where it
    can change an entry: pairs at x = d/(phi sqrt 2) >= 8 have f < 1.2e-29,
    so their squared error is t^2 (exactly, for t >= 2^-40; smaller targets
    are evaluated). The coarse pass bounds every grid point by its error sum
    over a distance-sorted prefix of about max(1024, N/16) of the N pairs
    (squared errors are non-negative), completes the points in order of that
    bound while doubling the prefix, and drops a point once its prefix sum
    plus its t^2 tail exceeds the smallest complete sum by a relative 1e-9.
    A dropped point's error is strictly larger than the minimum and ties are
    always completed, so k is that of the exhaustive scan.
    """
    X = np.asarray(genotype_columns, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if X.ndim != 2 or X.shape[1] != positions.size:
        raise ConfigurationError("genotype columns and positions misaligned")

    usable = np.std(X, axis=0) > 0
    if usable.sum() < 2:
        return DEFAULT_PHI
    X = X[:, usable]
    pos = positions[usable]

    corr = np.abs(np.corrcoef(X, rowvar=False))
    iu = np.triu_indices(pos.size, k=1)
    dists = np.abs(pos[iu[0]] - pos[iu[1]])
    # ascending distances make the model's tail a suffix and let
    # correlation_model take each erfc branch on one contiguous slice
    order = np.argsort(dists, kind="stable")
    pairs = _PairErrors(dists[order], corr[iu][order])

    errs = pairs.coarse(grid)
    k = int(np.argmin(errs))  # argmin returns the first (smallest) minimizer
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    fine = np.logspace(np.log10(lo), np.log10(hi), 200)
    fine_errs: dict[int, float] = {}

    def fine_err(i: int) -> float:
        if i not in fine_errs:
            fine_errs[i] = pairs.mse(fine[i])
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
