"""Shared fixtures and independent oracles for the test suite."""

import io
import math
import tracemalloc
import zipfile

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, log_ndtr

from spatialboost.em import em_prior_covariance
from spatialboost import genome
from spatialboost.errors import ConfigurationError, ParseError
from spatialboost.genome import (
    DEFAULT_PHI,
    PHI_GRID,
    GenomicBlock,
    SnpLocus,
    correlation_model,
)
from spatialboost.linalg import weighted_cholesky
from spatialboost.pipeline import MISSING_CODE, Dataset

_TRUNC = 0.64  # crossover point between the two series representations
_PI2 = math.pi * math.pi


def gamma_series_pg(z: float, rng: np.random.Generator, size: int,
                    terms: int = 200) -> np.ndarray:
    """Truncated infinite-sum-of-gammas representation of PG(1, z).

    PG(1, z) = (1 / 2 pi^2) sum_k g_k / ((k - 1/2)^2 + z^2 / (4 pi^2)),
    g_k iid Exponential(1). Used as an independent sampling oracle; the
    truncation bias at 200 terms is far below test resolution.
    """
    k = np.arange(1, terms + 1)
    denom = (k - 0.5) ** 2 + (z / (2.0 * np.pi)) ** 2
    g = rng.standard_exponential((size, terms))
    return (g / denom).sum(axis=1) / (2.0 * np.pi**2)


def _a_coef(n: int, x: float) -> float:
    """n-th alternating-series coefficient of the tilted Jacobi density."""
    h = n + 0.5
    if x > _TRUNC:
        return math.pi * h * math.exp(-h * h * _PI2 * x / 2.0)
    return (
        (2.0 / (math.pi * x)) ** 1.5
        * math.pi
        * h
        * math.exp(-2.0 * h * h / x)
    )


def _mass_texpon(z: float) -> float:
    """Probability of proposing from the exponential tail (x > _TRUNC).

    Where q/p overflows (z above about 46) the mass is below the smallest
    normal double, and 0 is returned.
    """
    t = _TRUNC
    fz = _PI2 / 8.0 + z * z / 2.0
    b = math.sqrt(1.0 / t) * (t * z - 1.0)
    a = -math.sqrt(1.0 / t) * (t * z + 1.0)
    x0 = math.log(fz) + fz * t
    xb = x0 - z + log_ndtr(b)
    xa = x0 + z + log_ndtr(a)
    try:
        qdivp = 4.0 / math.pi * (math.exp(xb) + math.exp(xa))
    except OverflowError:
        return 0.0
    return 1.0 / (1.0 + qdivp)


def _rtigauss(z: float, rng: np.random.Generator) -> float:
    """Inverse-Gaussian(1/z, 1) draw truncated to (0, _TRUNC)."""
    t = _TRUNC
    x = t + 1.0
    if z < 1.0 / t:
        while True:
            while True:
                e1 = rng.exponential()
                e2 = rng.exponential()
                if e1 * e1 <= 2.0 * e2 / t:
                    break
            x = t / (1.0 + t * e1) ** 2
            if rng.random() <= math.exp(-0.5 * z * z * x):
                return x
    mu = 1.0 / z
    while x > t:
        yv = rng.standard_normal() ** 2
        x = mu + 0.5 * mu * mu * yv - 0.5 * mu * math.sqrt(4.0 * mu * yv + (mu * yv) ** 2)
        if rng.random() > mu / (mu + x):
            x = mu * mu / x
    return x


def scalar_pg(z: float, rng: np.random.Generator) -> float:
    """Exact draw from PG(1, z) by alternating-series rejection, one entry
    at a time: the scalar oracle for ``sample_pg_vector``."""
    if not math.isfinite(z):
        raise ConfigurationError(f"z must be finite, got {z}")
    zh = abs(z) / 2.0
    fz = _PI2 / 8.0 + zh * zh / 2.0
    p_tail = _mass_texpon(zh)
    while True:
        if rng.random() < p_tail:
            x = _TRUNC + rng.exponential() / fz
        else:
            x = _rtigauss(zh, rng)
        s = _a_coef(0, x)
        yv = rng.random() * s
        n = 0
        while True:
            n += 1
            if n % 2 == 1:
                s -= _a_coef(n, x)
                if yv <= s:
                    return x / 4.0
            else:
                s += _a_coef(n, x)
                if yv > s:
                    break


def correlated_columns(C: np.ndarray, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Columns whose sample correlation matrix equals C exactly.

    Random Gaussian columns are centered and whitened to identity sample
    covariance, then colored by the Cholesky factor of C. Requires n > p.
    """
    p = C.shape[0]
    Z = rng.standard_normal((n, p))
    Z = Z - Z.mean(axis=0)
    cov = Z.T @ Z / n
    W = Z @ np.linalg.inv(np.linalg.cholesky(cov)).T
    return W @ np.linalg.cholesky(C).T


def exhaustive_fit_phi(genotype_columns: np.ndarray, positions: np.ndarray,
                       grid: np.ndarray = PHI_GRID) -> float:
    """Exhaustive-scan oracle for ``fit_phi``: every coarse grid point, then
    every one of 200 fine points around the coarse minimum; the first
    (smallest) minimizer wins on both passes."""
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
    target = corr[iu]
    dists = np.abs(pos[:, None] - pos[None, :])[iu]

    def mse(phi: float) -> float:
        return float(np.mean((target - correlation_model(dists, phi)) ** 2))

    errs = np.array([mse(p) for p in grid])
    k = int(np.argmin(errs))  # argmin returns the first (smallest) minimizer
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    fine = np.logspace(np.log10(lo), np.log10(hi), 200)
    fine_errs = np.array([mse(p) for p in fine])
    return float(fine[int(np.argmin(fine_errs))])


def float_copy_distance_bins(X: np.ndarray, pos: np.ndarray):
    """``genome._distance_bins`` through a float64 cast of X, centred out
    of place, with |r| d in a buffer of its own: the reference the int8
    route must match bit for bit."""
    X = np.asarray(X, dtype=float)
    Z = X.T - X.mean(axis=0)[:, None]  # one row per SNP
    Z /= np.sqrt(np.einsum("ij,ij->i", Z, Z))[:, None]  # Z Z' = corr
    ps = np.sort(pos, kind="stable")
    gaps = np.diff(ps)
    if gaps.any():
        d_lo, d_hi = gaps[gaps > 0].min(), ps[-1] - ps[0]
        lo, hi = np.floor(genome._BINS_PER_DECADE * np.log10([d_lo, d_hi]))
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
        k *= genome._BINS_PER_DECADE
        np.floor(k, out=k)
        k -= lo - 1.0
        k = np.clip(k, 0, n_bins - 1, out=k).astype(np.intp)
        for row, w in zip(sums, (None, d, r, r * d)):
            row += np.bincount(k, w, minlength=n_bins)
        r2 += float(r @ r)

    m, rows = pos.size, genome._BLOCK_ROWS
    upper = np.triu(np.ones((min(m, rows),) * 2, dtype=bool), 1)
    for a in range(0, m, rows):
        b = min(a + rows, m)
        Za, pa, tri = Z[a:b], pos[a:b, None], upper[:b - a, :b - a]
        add((Za @ Za.T)[tri], (pa - pos[a:b])[tri])
        add((Za @ Z[b:].T).ravel(), (pa - pos[b:]).ravel())
    return sums, r2


def float_copy_fit_phi(genotype_columns: np.ndarray, positions: np.ndarray,
                       grid: np.ndarray = PHI_GRID) -> float:
    """``genome.fit_phi`` through three float64 copies of the region (the
    cast, the usable columns and the centred rows), usable columns by
    np.std, and the same binned search: the reference the int8 route must
    match bit for bit."""
    X = np.asarray(genotype_columns, dtype=float)
    positions = np.asarray(positions, dtype=float)
    usable = np.std(X, axis=0) > 0
    if usable.sum() < 2:
        return DEFAULT_PHI
    bins = float_copy_distance_bins(X[:, usable], positions[usable])
    errors = genome._binned_errors(*bins)
    k = int(np.argmin(errors(grid)))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    fine = np.logspace(np.log10(lo), np.log10(hi), 200)
    a, b = 0, fine.size - 1
    while a < b:
        mid = (a + b) // 2
        if errors(fine[mid:mid + 1])[0] <= errors(fine[mid + 1:mid + 2])[0]:
            b = mid
        else:
            a = mid + 1
    return float(fine[a])


def npz_bytes(arrays: dict) -> bytes:
    """The draw archive built whole in memory: one ``<name>.npy`` member
    per array from ``np.lib.format.write_array``, each stored by
    ``writestr`` with the fixed 1980-01-01 timestamp; the reference the
    streamed ``write_npz`` must match byte for byte."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, arr in arrays.items():
            npy = io.BytesIO()
            np.lib.format.write_array(npy, np.asarray(arr), allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, npy.getvalue())
    return buf.getvalue()


def peak_bytes(fn) -> int:
    """Peak bytes numpy and Python allocated while fn ran, over what was
    live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def dense_woodbury(S: np.ndarray, sigma: np.ndarray,
                   rhs: np.ndarray) -> np.ndarray:
    """Direct dense oracle for (S'S + Sigma^-1)^-1 rhs."""
    A = S.T @ S + np.diag(1.0 / sigma)
    return np.linalg.solve(A, rhs)


def orthonormal(p1: int, l: int, rng: np.random.Generator) -> np.ndarray:
    """A p1 x l matrix with orthonormal columns (QR of a Gaussian matrix)."""
    return np.linalg.qr(rng.standard_normal((p1, l)))[0]


def pg_mean(z: float) -> float:
    """E[PG(1, z)] = tanh(z/2) / (2 z), with limit 1/4 at z = 0."""
    if z == 0.0:
        return 0.25
    return math.tanh(z / 2.0) / (2.0 * z)


def pg_var(z: float) -> float:
    """Var[PG(1, z)] = (sinh z - z) / (4 z^3 cosh^2(z/2)), evaluated as
    (2 tanh(z/2) - z sech^2(z/2)) / (4 z^3) so that no term overflows at
    large |z|; near 0, where that difference cancels, its Taylor series
    1/24 - z^2/120 + 17 z^4/13440 is used."""
    z2 = z * z
    if z2 < 1e-4:
        return 1.0 / 24.0 - z2 / 120.0 + 17.0 * z2 * z2 / 13440.0
    t = math.tanh(z / 2.0)
    return (2.0 * t - z * (1.0 - t * t)) / (4.0 * z2 * z)


class _SFormWoodbury:
    """(S'S + Sigma^-1)^-1 with S multiplied out: the core I + (S Sigma) S'
    is formed from the k x (p+1) matrix S."""

    def __init__(self, S: np.ndarray, sigma: np.ndarray):
        self.S = S
        self.sigma = sigma
        self._SSig = S * sigma
        core = self._SSig @ S.T
        self._factor = cho_factor(0.5 * (core + core.T) + np.eye(S.shape[0]))

    def solve_core(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self._factor, rhs)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        SigR = self.sigma * rhs
        return SigR - self._SSig.T @ self.solve_core(self.S @ SigR)


def reconstruct(design) -> np.ndarray:
    """X_l: the stored X_l' transposed on sample-space designs, U diag(d) V'
    multiplied out on rank-space ones."""
    if design.sample_space:
        return design.Xt.T
    return (design.U * design.d) @ design.V.T


def s_form(design, W: np.ndarray) -> np.ndarray:
    """The left factor S with S'S = X_l' diag(W) X_l, multiplied out:
    diag(sqrt W) X_l (n x (p+1)) on sample-space designs, C_w V'
    (l x (p+1)) on rank-space ones."""
    if design.sample_space:
        return np.sqrt(W)[:, None] * reconstruct(design)
    return weighted_cholesky(design, W) @ design.V.T


def s_form_sample_beta(omega, theta, sigma2, design, y, hyper,
                       rng: np.random.Generator) -> np.ndarray:
    """Oracle for ``mcmc.sample_beta``: the same draw, with the same normals
    in the same order (delta has S's row count), through the S-forming
    Woodbury path."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ConfigurationError("omega entries must be positive")
    sigma = sigma2 * (np.asarray(theta, float) * hyper.kappa + 1.0 - theta)
    S = s_form(design, omega)
    solver = _SFormWoodbury(S, sigma)
    mean = solver.solve(design.rmatvec(np.asarray(y, float) - 0.5))
    u = rng.standard_normal(design.p1) * np.sqrt(sigma)
    delta = rng.standard_normal(S.shape[0])
    w = solver.solve_core(S @ u + delta)
    return mean + u - sigma * (S.T @ w)


def s_form_cm_beta(design, y, beta, etheta, sigma2, hyper) -> np.ndarray:
    """Oracle for ``em.cm_beta`` through the S-forming Woodbury path."""
    mu = expit(design.matvec(beta))
    W = mu * (1.0 - mu)
    S = s_form(design, W)
    rhs = S.T @ (S @ beta) + design.rmatvec(y - mu)
    sigma = em_prior_covariance(etheta, sigma2, hyper.kappa)
    return _SFormWoodbury(S, sigma).solve(rhs)


def loop_build_blocks(genes, relevances) -> list:
    """Oracle for ``genome.build_blocks``: at every pair of consecutive gene
    endpoints of a chromosome, scan all its genes for those covering it and
    average their relevances in gene order."""
    relevances = np.asarray(relevances, dtype=float)
    blocks = []
    by_chrom = {}
    for i, g in enumerate(genes):
        by_chrom.setdefault(g.chromosome, []).append(i)
    for chrom, idx in by_chrom.items():
        cuts = sorted({p for i in idx for p in (genes[i].start, genes[i].end)})
        for a, b in zip(cuts[:-1], cuts[1:]):
            covering = [
                relevances[i]
                for i in idx
                if genes[i].start < b and genes[i].end > a
            ]
            if covering:
                blocks.append(GenomicBlock(a, b, float(np.mean(covering)), chrom))
    return blocks


def gene_weight(s_j: float, block: GenomicBlock, phi: float) -> float:
    """Oracle for one (SNP, block) mass of ``genome.compute_boosts``: the
    Gaussian mass of N(s_j, phi^2) over [block.start, block.end], as
    Phi(b) - Phi(a) with Phi(u) = erfc(-u / sqrt 2) / 2 from libm."""
    if phi <= 0:
        raise ConfigurationError(f"phi must be positive, got {phi}")
    scale = math.sqrt(0.5) / phi
    return 0.5 * (
        math.erfc((s_j - block.end) * scale) - math.erfc((s_j - block.start) * scale)
    )


def loop_compute_boosts(snps, blocks, phi: float) -> np.ndarray:
    """Oracle for ``genome.compute_boosts``' values: one ``gene_weight`` call
    per (SNP, block) pair, summed per SNP in block order from 0.0, then
    rescaled to max 1 unless every total is 0."""
    raw = np.zeros(len(snps))
    by_chrom = {}
    for b in blocks:
        by_chrom.setdefault(b.chromosome, []).append(b)
    for j, snp in enumerate(snps):
        for b in by_chrom.get(snp.chromosome, ()):
            raw[j] += gene_weight(snp.position, b, phi) * b.relevance
    top = raw.max()
    return raw / top if top > 0.0 else raw


def per_cell_load_genotypes(path: str) -> Dataset:
    """Oracle for ``pipeline.load_genotypes``: every line split and every
    cell checked in Python, then each column with missing cells imputed to
    the rounded mean of its observed cells."""
    with open(path) as fh:
        lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(fh, start=1)]
    lines = [(i, ln) for i, ln in lines if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty genotype file")
    head_no, head = lines[0]
    header = head.split("\t")
    if header[0] != "#pheno":
        raise ParseError(f"{path}:{head_no}: header must start with '#pheno'")
    snps = []
    for col in header[1:]:
        parts = col.split(":")
        if len(parts) != 3:
            raise ParseError(
                f"{path}:{head_no}: SNP header '{col}' is not id:chrom:pos"
            )
        sid, chrom, pos = parts
        try:
            snps.append(SnpLocus(sid, int(pos), chrom))
        except ValueError as exc:
            raise ParseError(
                f"{path}:{head_no}: bad position in '{col}': {exc}"
            ) from exc

    p = len(snps)
    y_rows, g_rows = [], []
    for lineno, ln in lines[1:]:
        cells = ln.split("\t")
        if len(cells) != p + 1:
            raise ParseError(
                f"{path}:{lineno}: expected {p + 1} fields, got {len(cells)}"
            )
        if cells[0] not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: phenotype '{cells[0]}' not in {{0,1}}")
        y_rows.append(int(cells[0]))
        row = []
        for k, cell in enumerate(cells[1:], start=1):
            if cell == MISSING_CODE:
                row.append(np.nan)
            elif cell in ("0", "1", "2"):
                row.append(float(cell))
            else:
                raise ParseError(
                    f"{path}:{lineno}: genotype '{cell}' not in "
                    f"{{0,1,2,{MISSING_CODE}}} (column {k})"
                )
        g_rows.append(row)

    G = np.array(g_rows, dtype=float)
    imputed = int(np.isnan(G).sum())
    if imputed:
        for j in range(p):
            col = G[:, j]
            miss = np.isnan(col)
            if miss.any():
                fill = np.round(np.nanmean(col)) if (~miss).any() else 0.0
                col[miss] = np.clip(fill, 0, 2)
    return Dataset(
        y=np.array(y_rows), G=G.astype(np.int8), snps=snps, imputed=imputed
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
