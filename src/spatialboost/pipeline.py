"""Data ingestion, preprocessing filters, and end-to-end orchestration.

File formats:
  genotypes  -- header ``#pheno<TAB>id:chrom:pos...``; one row per
                individual: phenotype (0/1) then genotypes (0/1/2, ``.`` for
                missing, imputed to the column's rounded mean dosage).
  genes      -- BED-like 4 columns: chrom, start, end, gene-id.
  relevances -- 2 columns: gene-id, score; genes absent from the file
                default to relevance 1.
  config     -- flat ``key = value`` lines with stage-prefixed keys
                (em.kappa, gibbs.kappa, ...), since the EM and Gibbs stages
                may use different hyperparameters.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import zipfile
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from itertools import compress, islice
from typing import BinaryIO

import numpy as np

from spatialboost import __version__
from spatialboost._special import chi2_sf_1df
from spatialboost.em import (
    FilterConfig,
    FilterTrace,
    Hyperparameters,
    em_filter_pipeline,
)
from spatialboost.errors import (
    ConfigurationError,
    ParseError,
    PipelineError,
)
from spatialboost.genome import (
    Gene,
    RegionPartition,
    SnpLocus,
    build_blocks,
    compute_boosts,
    fit_phi_by_region,
    partition_regions,
)
from spatialboost.inference import (
    DEFAULT_GAMMA_GRID,
    SelectionReport,
    kappa_scan,
    kappa_scan_tsv,
    threshold,
)
from spatialboost.mcmc import ChainSummary, gibbs_run, resolve_burnin

MISSING_CODE = "."
# genotype rows are decoded in blocks of about this many bytes of text, so a
# load holds the int8 matrix and one block's text and codes beside it
LOAD_BLOCK = 1 << 16


@dataclass
class Dataset:
    """Phenotypes, genotype matrix and aligned marker metadata. The design's
    intercept column is added only where a design is factored
    (``FilterConfig.factor``)."""

    y: np.ndarray  # {0,1}^n
    G: np.ndarray  # n x p int8 markers in {0,1,2}
    snps: list[SnpLocus]
    imputed: int = 0  # count of imputed genotype cells

    def __post_init__(self):
        if self.G.ndim != 2 or self.G.dtype != np.int8:
            raise ConfigurationError("genotypes must be an int8 matrix")
        if len(self.snps) != self.p:
            raise ConfigurationError("marker metadata misaligned with genotypes")
        if len(self.y) != self.n:
            raise ConfigurationError(
                f"{len(self.y)} phenotypes for {self.n} genotype rows"
            )
        if self.G.view(np.uint8).max(initial=0) > 2:  # an int8 -1 reads as 255
            raise ConfigurationError("marker entries must be in {0,1,2}")
        if not np.isin(self.y, (0, 1)).all():
            raise ConfigurationError("phenotypes must be in {0,1}")

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def p(self) -> int:
        return self.G.shape[1]


def _lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of the non-blank lines of ``path``, read lazily,
    LF or CRLF ending dropped; a line that is not UTF-8 raises ParseError at
    path:line when it is reached."""
    with open(path, "rb") as fh:
        for k, raw in enumerate(fh, start=1):
            try:
                ln = raw.decode().removesuffix("\n").removesuffix("\r")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{k}: not UTF-8 text ({exc.reason})") from exc
            if ln.strip():
                yield k, ln


def load_genotypes(path: str) -> Dataset:
    """Parse the genotype file; missing cells ('.') are imputed with
    the rounded mean dosage of the observed entries in their column.

    A valid row is one character per field with single tabs between
    (2p + 1 characters), so the cells are decoded and checked in numpy, in
    blocks of rows of about LOAD_BLOCK bytes, straight into one int8 matrix
    allocated up front; a missing cell holds a sentinel code there until
    the imputation, which also runs in row blocks. When a block fails that
    check, a per-line scan names its first bad ``file:line``, counting
    blank lines.
    """
    lines = _lines(path)
    header = next(lines, None)
    if header is None:
        raise ParseError(f"{path}: empty genotype file")
    snps = _parse_genotype_header(path, *header)
    p = len(snps)
    step = max(1, LOAD_BLOCK // (2 * p + 2))  # rows per block
    # a valid row takes 2p + 2 bytes (the last one may lack its newline) and
    # the header more, so the file holds at most this many rows
    cap = os.path.getsize(path) // (2 * p + 2)
    y, G = np.empty(cap, dtype=np.int64), np.empty((cap, p), dtype=np.int8)
    n, missing = 0, np.zeros(p, dtype=np.int64)
    while block := list(islice(lines, step)):
        rows = slice(n, n + len(block))
        if rows.stop > cap:  # a pipe, whose size bounds nothing
            cap = 2 * rows.stop
            y, G = np.resize(y, cap), np.resize(G, (cap, p))
        if not _fixed_width_cells([ln for _, ln in block], y[rows], G[rows]):
            _raise_first_bad_row(path, block, p)
        missing += (G[rows] == _MISSING).sum(axis=0)
        n += len(block)
    if n == 0:
        raise ParseError(f"{path}: no genotype rows below the header")
    y, G = y[:n], G[:n]
    imputed = int(missing.sum())
    if imputed:
        # the integer column sums less the sentinels are exact totals
        total = G.sum(axis=0) - _MISSING * missing
        fill = np.round(total / np.maximum(n - missing, 1))  # 0 if none
        fill = fill.astype(np.int8)
        for i in range(0, n, step):
            np.copyto(G[i:i + step], fill, where=G[i:i + step] == _MISSING)
    return Dataset(y=y, G=G, snps=snps, imputed=imputed)


def _parse_genotype_header(path: str, lineno: int, line: str) -> list[SnpLocus]:
    header = line.split("\t")
    if header[0] != "#pheno":
        raise ParseError(f"{path}:{lineno}: header must start with '#pheno'")
    snps, seen = [], set()
    for col in header[1:]:
        parts = col.split(":")
        if len(parts) != 3:
            raise ParseError(
                f"{path}:{lineno}: SNP header '{col}' is not id:chrom:pos"
            )
        sid, chrom, pos = parts
        if sid in seen:
            raise ParseError(f"{path}:{lineno}: duplicate SNP id {sid}")
        seen.add(sid)
        try:
            snps.append(SnpLocus(sid, int(pos), chrom))
        except ValueError as exc:
            raise ParseError(
                f"{path}:{lineno}: bad position in '{col}': {exc}"
            ) from exc
    return snps


_TAB, _DOT = ord("\t"), ord(MISSING_CODE)
_ZERO, _TWO = ord("0"), ord("2")
_MISSING = _DOT - _ZERO  # a missing cell's int8 code as decoded


def _fixed_width_cells(rows: list[str], y: np.ndarray, G: np.ndarray) -> bool:
    """Decode rows that are all 2p + 1 ASCII characters long with valid
    codes into the phenotypes y and the int8 genotype rows G, a missing
    cell as _MISSING, and return True; else return False, writing nothing."""
    width = 2 * G.shape[1] + 1
    if any(len(ln) != width for ln in rows):
        return False
    buf = "".join(rows).encode()
    if len(buf) != len(rows) * width:  # a multi-byte character
        return False
    A = np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), width)
    pheno, cells = A[:, 0], A[:, 2::2]
    if not (
        np.all(A[:, 1::2] == _TAB)
        and np.all((pheno == _ZERO) | (pheno == _ZERO + 1))
        and np.all(((cells >= _ZERO) & (cells <= _TWO)) | (cells == _DOT))
    ):
        return False
    y[:] = pheno - _ZERO
    G[:] = cells  # codes are ASCII, below 128
    G -= _ZERO
    return True


def _raise_first_bad_row(path: str, rows: list[tuple[int, str]], p: int) -> None:
    """Raise ParseError naming the first of the (line number, text) data rows
    that is not a phenotype and p genotype codes between single tabs; every
    input ``_fixed_width_cells`` rejects has one."""
    for lineno, ln in rows:
        cells = ln.split("\t")
        if len(cells) != p + 1:
            raise ParseError(
                f"{path}:{lineno}: expected {p + 1} fields, got {len(cells)}"
            )
        if cells[0] not in ("0", "1"):
            raise ParseError(
                f"{path}:{lineno}: phenotype '{cells[0]}' not in {{0,1}}"
            )
        for k, cell in enumerate(cells[1:], start=1):
            if cell not in ("0", "1", "2", MISSING_CODE):
                raise ParseError(
                    f"{path}:{lineno}: genotype '{cell}' not in "
                    f"{{0,1,2,{MISSING_CODE}}} (column {k})"
                )


def _records(path: str, width: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each line of ``path`` that is neither blank
    nor a ``#`` comment; a line without ``width`` fields raises ParseError."""
    for lineno, ln in _lines(path):
        if ln.startswith("#"):
            continue
        cells = ln.split()
        if len(cells) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields")
        yield lineno, cells


def load_genes(path: str) -> list[Gene]:
    genes = []
    seen = set()
    for lineno, (chrom, start, end, gid) in _records(path, 4):
        try:
            start_i, end_i = int(start), int(end)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad coordinate") from exc
        if start_i >= end_i:
            raise ParseError(
                f"{path}:{lineno}: gene {gid} start {start_i} >= end {end_i}"
            )
        if gid in seen:
            raise ParseError(f"{path}:{lineno}: duplicate gene id {gid}")
        seen.add(gid)
        genes.append(Gene(gid, start_i, end_i, chrom))
    return genes


def load_relevances(path: str | None, genes: list[Gene]) -> np.ndarray:
    """Relevance vector aligned to ``genes``; missing file or missing genes
    default to the non-informative value 1."""
    scores: dict[str, float] = {}
    for lineno, (gid, raw) in (_records(path, 2) if path is not None else ()):
        try:
            val = float(raw)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad score '{raw}'") from exc
        if val < 0:
            raise ParseError(f"{path}:{lineno}: negative score for {gid}")
        if not math.isfinite(val):
            raise ParseError(f"{path}:{lineno}: non-finite score for {gid}")
        if gid in scores:
            raise ParseError(f"{path}:{lineno}: duplicate gene id {gid}")
        scores[gid] = val
    return np.array([scores.get(g.id, 1.0) for g in genes])


def maf_filter(G: np.ndarray, min_maf: float) -> np.ndarray:
    """Keep mask over the columns of ``G``: minor allele frequency strictly
    above ``min_maf``."""
    f = G.sum(axis=0) / (2.0 * G.shape[0])
    return np.minimum(f, 1.0 - f) > min_maf


def hwe_pvalues(G: np.ndarray) -> np.ndarray:
    """One-df chi-square goodness of fit of each column's genotype counts
    against the random-mating proportions (q^2, 2pq, p^2); the 2s are
    counted, and the column sums give the 1s and 0s."""
    n = G.shape[0]
    dosage = G.sum(axis=0)
    n2 = (G == 2).sum(axis=0)
    n1 = dosage - 2 * n2
    counts = np.stack([n - n1 - n2, n1, n2])
    f = dosage / (2.0 * n)
    expected = np.stack([(1 - f) ** 2, 2 * f * (1 - f), f**2]) * n
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (counts - expected) ** 2 / expected, 0.0)
    stat = terms.sum(axis=0)
    return chi2_sf_1df(stat)


def hwe_filter(G: np.ndarray, alpha: float) -> np.ndarray:
    """Keep mask over the columns of ``G``: equilibrium p-value not below
    ``alpha``."""
    return ~(hwe_pvalues(G) < alpha)


def selection_file(gamma: float) -> str:
    """The report's selection artifact for one gamma."""
    return f"selection_gamma{gamma:g}.tsv"


@dataclass
class RunConfig:
    """One run's settings; README's Configuration section lists every key."""

    genotypes: str = ""
    genes: str = ""
    relevances: str | None = None
    out_dir: str = "out"
    seed: int = 0
    phi: float | None = None  # None -> fit from correlation decay
    min_maf: float = 0.05
    hwe_alpha: float = 1e-6
    filtering: FilterConfig = FilterConfig()
    gibbs_iters: int = 1000
    gibbs_burnin: int | None = None
    gammas: tuple[float, ...] = (1.0,)
    em: Hyperparameters = Hyperparameters(
        kappa=1000.0, nu=3.0, lam=0.02, xi0=-4.0, xi1=2.0
    )
    gibbs: Hyperparameters = Hyperparameters(
        kappa=100.0, nu=3.0, lam=0.02, xi0=-3.0, xi1=2.0
    )

    def __post_init__(self):
        if self.phi is not None and not self.phi > 0:
            raise ConfigurationError(f"phi must be positive, got {self.phi}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.min_maf < 0.5:
            raise ConfigurationError(f"min_maf must be in [0, 0.5), got {self.min_maf}")
        if not 0 <= self.hwe_alpha < 1:
            raise ConfigurationError(
                f"hwe_alpha must be in [0, 1), got {self.hwe_alpha}"
            )
        written = {}  # selection file -> the gamma that writes it
        for gamma in self.gammas:
            threshold(gamma)
            name = selection_file(gamma)
            if name in written:
                raise ConfigurationError(
                    f"gammas {written[name]} and {gamma} both write {name}"
                )
            written[name] = gamma
        resolve_burnin(self.gibbs_iters, self.gibbs_burnin)

    def resolved_text(self) -> str:
        """Every config key with its resolved value, in config-file
        spelling: the text reads back through ``parse_config``."""
        lines = []
        for key, (path, _) in _KEYS.items():
            val = reduce(getattr, path.split("."), self)
            if val is None:
                val = ""
            elif isinstance(val, tuple):
                val = ",".join(map(str, val))
            lines.append(f"{key} = {val}".rstrip())
        return "\n".join(lines) + "\n"


def _finite(text: str) -> float:
    """A float config value; NaN and +-inf are rejected like any bad value."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# config key -> (RunConfig field path, converter), one for every field a
# run reads. parse_config reads with it and RunConfig.resolved_text writes
# with it, so the manifest's [config] reruns any run.
_KEYS = {
    "genotypes": ("genotypes", str),
    "genes": ("genes", str),
    "relevances": ("relevances", lambda v: v or None),
    "out_dir": ("out_dir", str),
    "seed": ("seed", int),
    "phi": ("phi", lambda v: None if v in ("fit", "") else _finite(v)),
    "min_maf": ("min_maf", _finite),
    "hwe_alpha": ("hwe_alpha", _finite),
    "rank_tol": ("filtering.rank_tol", _finite),
    "rank": ("filtering.rank", lambda v: int(v) if v else None),
    "filter.fraction": ("filtering.fraction", _finite),
    "filter.max_rounds": ("filtering.max_rounds", int),
    "gibbs.iters": ("gibbs_iters", int),
    "gibbs.burnin": ("gibbs_burnin", lambda v: int(v) if v else None),
    "gammas": ("gammas", lambda v: tuple(_finite(g) for g in v.split(","))),
    **{
        f"{stage}.{f_.name}": (f"{stage}.{f_.name}", _finite)
        for stage in ("em", "gibbs")
        for f_ in fields(Hyperparameters)
    },
}


def _replaced(obj, path: str, value):
    """``obj`` with the field at dotted ``path`` set to ``value``; each
    dataclass on the path is rebuilt, so its own validation runs."""
    name, _, rest = path.partition(".")
    if rest:
        value = _replaced(getattr(obj, name), rest, value)
    return replace(obj, **{name: value})


def parse_config(path: str) -> RunConfig:
    """Flat ``key = value`` config with stage prefixes em./gibbs./filter.

    An unknown key, a key given twice (naming both lines), a value that
    does not convert, or a value its dataclass rejects raises
    ConfigurationError naming ``path:line``. Values are set in ``_KEYS``
    order, so gibbs.burnin is checked against the file's gibbs.iters
    wherever either line is.
    """
    settings = []  # (key order, file:line, field path, value)
    seen: dict[str, str] = {}  # key -> the file:line that set it
    for lineno, ln in _lines(path):
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        where = f"{path}:{lineno}"
        if "=" not in ln:
            raise ParseError(f"{where}: expected 'key = value'")
        key, val = (part.strip() for part in ln.split("=", 1))
        if key not in _KEYS:
            raise ConfigurationError(f"{where}: unknown config key '{key}'")
        if key in seen:
            raise ConfigurationError(f"{where}: key '{key}' already set at {seen[key]}")
        seen[key] = where
        field_path, convert = _KEYS[key]
        try:
            value = convert(val)
        except ValueError as exc:
            raise ConfigurationError(
                f"{where}: bad value '{val}' for '{key}'"
            ) from exc
        settings.append((list(_KEYS).index(key), where, field_path, value))
    cfg = RunConfig()
    for _, where, field_path, value in sorted(settings, key=lambda s: s[0]):
        try:
            cfg = _replaced(cfg, field_path, value)
        except ConfigurationError as exc:  # out of range for its dataclass
            raise ConfigurationError(f"{where}: {exc}") from exc
    return cfg


def substream(root_seed: int, name: str) -> np.random.Generator:
    """Named, reproducible random substream derived from the root seed."""
    digest = hashlib.sha256(name.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([root_seed, *words]))


def atomic_write(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def atomic_write_bytes(path: str, data: bytes | Callable[[BinaryIO], None]) -> None:
    """Write ``data``, or let ``data(fh)`` write, to a temporary file next
    to ``path``, then rename it over ``path``, so a reader never sees a
    partial file. A write that raises removes the temporary file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_npz(fh: BinaryIO, arrays: dict[str, np.ndarray]) -> None:
    """Write an uncompressed .npz archive of ``arrays`` that ``np.load``
    reads to the seekable ``fh``, one ``<name>.npy`` member each. Unlike
    ``np.savez``, every member carries the same fixed timestamp, so equal
    arrays give equal bytes. Each member is written from its array's own
    buffer (the chain's draws are C-contiguous), so no copy of the draws
    or of the archive is held in memory."""
    with zipfile.ZipFile(fh, "w") as zf:
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            header = io.BytesIO()
            meta = np.lib.format.header_data_from_array_1_0(arr)
            np.lib.format.write_array_header_1_0(header, meta)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            # the size is set before opening, as writestr sets it, so the
            # member's zip64 choice is writestr's
            info.file_size = header.tell() + arr.nbytes
            with zf.open(info, "w") as member:
                member.write(header.getvalue())
                member.write(arr)


_CHUNK = 1 << 20  # bytes per read when hashing an artifact


def _checksum(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class PipelineResult:
    """The run context: each stage reads what earlier stages left here and
    adds its own results. ``run_pipeline`` returns it."""

    config: RunConfig
    command: str = ""  # the CLI subcommand and its own flags, if any
    outputs: list[str] = field(default_factory=list)  # paths, in write order
    artifact: str | None = None  # main artifact of the last stage run
    dataset: Dataset | None = None
    genes: list[Gene] = field(default_factory=list)
    relevances: np.ndarray | None = None
    qc_counts: tuple[int, int, int] = (0, 0, 0)  # read, after MAF, after HWE
    boosts: np.ndarray | None = None
    trace: FilterTrace | None = None
    chain: ChainSummary | None = None

    @property
    def out_dir(self) -> str:
        return self.config.out_dir

    def emit(self, name: str, data: str | Callable[[BinaryIO], None]) -> str:
        path = os.path.join(self.out_dir, name)
        if isinstance(data, str):
            atomic_write(path, data)
        else:
            atomic_write_bytes(path, data)
        self.outputs.append(path)
        return path


def _load(run: PipelineResult) -> None:
    cfg = run.config
    run.dataset = load_genotypes(cfg.genotypes)
    run.genes = load_genes(cfg.genes)
    run.relevances = load_relevances(cfg.relevances, run.genes)


def _qc(run: PipelineResult) -> str:
    cfg, loaded = run.config, run.dataset
    maf_pass = maf_filter(loaded.G, cfg.min_maf)
    kept = maf_pass & hwe_filter(loaded.G, cfg.hwe_alpha)
    run.dataset = replace(
        loaded, G=loaded.G[:, kept], snps=list(compress(loaded.snps, kept))
    )
    run.qc_counts = (loaded.p, int(maf_pass.sum()), run.dataset.p)
    lines = ["snp\tmaf_pass\thwe_pass"]
    for snp, m, k in zip(loaded.snps, maf_pass.tolist(), kept.tolist()):
        lines.append(f"{snp.id}\t{int(m)}\t{int(k)}")
    return run.emit("filters.tsv", "\n".join(lines) + "\n")


def fit_region_phis(run: PipelineResult) -> RegionPartition:
    """Per-region phi fits from the decay of correlation with distance
    between the post-QC markers; their mean is the boosts' fitted phi."""
    snps = run.dataset.snps
    partition = partition_regions(snps, run.genes)
    return fit_phi_by_region(run.dataset.G, snps, partition)


def _boosts(run: PipelineResult) -> str:
    cfg, snps = run.config, run.dataset.snps
    if cfg.phi is not None:
        phi, source = cfg.phi, "fixed"
    else:
        phi, source = fit_region_phis(run).global_phi(), "fit (mean of region fits)"
    run.boosts = compute_boosts(snps, build_blocks(run.genes, run.relevances), phi)
    lines = [f"# phi={phi:.10g}\tsource={source}", "snp\tboost"]
    for snp, b in zip(snps, run.boosts):
        lines.append(f"{snp.id}\t{b:.10g}")
    return run.emit("boosts.tsv", "\n".join(lines) + "\n")


def _em_filter(run: PipelineResult) -> str | None:
    cfg, ds = run.config, run.dataset
    run.trace = em_filter_pipeline(ds.G, ds.y, run.boosts, cfg.em, cfg.filtering)
    if not run.trace.rounds:  # filter.max_rounds = 0: no round to trace
        return None
    return run.emit("em_trace.tsv", run.trace.to_tsv([s.id for s in ds.snps]))


def sample_survivors(
    config: RunConfig,
    y: np.ndarray,
    boosts: np.ndarray,
    trace: FilterTrace,
    seed: int,
) -> ChainSummary:
    """The chain of ``config.gibbs`` from ``seed`` on the EM filter's
    survivors: the design ``trace`` carries and their boosts. The gibbs
    stage and the simulation study both sample through it."""
    return gibbs_run(
        trace.design,
        y,
        boosts[trace.final_survivors],
        config.gibbs,
        iters=config.gibbs_iters,
        burnin=config.gibbs_burnin,
        seed=seed,
    )


def _gibbs(run: PipelineResult) -> str:
    cfg, ds = run.config, run.dataset
    seed = int(substream(cfg.seed, "gibbs.chain0").integers(2**31))
    run.chain = chain = sample_survivors(cfg, ds.y, run.boosts, run.trace, seed)
    draws = {
        "theta": chain.theta_draws,
        "beta": chain.beta_draws,
        "sigma2": chain.sigma2_draws,
    }
    return run.emit("gibbs_draws.npz", lambda fh: write_npz(fh, draws))


def _report(run: PipelineResult) -> str:
    ds, pi_hat, survivors = run.dataset, run.chain.pi_hat, run.trace.final_survivors
    gammas = run.config.gammas
    surv_set = {int(j): k for k, j in enumerate(survivors)}
    etheta_em = run.trace.survivor_etheta
    # each gamma's selection and BFDR, computed once; report.tsv's
    # selected_gamma1 column reads gamma = 1's
    ids = [ds.snps[int(j)].id for j in survivors]
    reports = {g: SelectionReport.build(ids, pi_hat[1:], g) for g in {1.0, *gammas}}
    sel1 = reports[1.0].selected
    lines = ["snp\tchrom\tpos\tboost\tetheta_em\tpi_hat\tselected_gamma1"]
    for j, snp in enumerate(ds.snps):
        if j in surv_set:
            k = surv_set[j]
            et = "NA" if etheta_em is None else f"{etheta_em[k]:.10g}"
            ph = f"{pi_hat[1 + k]:.10g}"
            sel = int(sel1[k])
        else:
            et, ph, sel = "NA", "NA", 0
        lines.append(
            f"{snp.id}\t{snp.chromosome}\t{snp.position}"
            f"\t{run.boosts[j]:.10g}\t{et}\t{ph}\t{sel}"
        )
    path = run.emit("report.tsv", "\n".join(lines) + "\n")
    for g in gammas:
        run.emit(selection_file(g), reports[g].to_tsv())
    bf_lines = ["gamma\tthreshold\tbfdr\tselected"]
    bf_lines += [reports[g].point.tsv() for g in gammas]
    run.emit("bfdr.tsv", "\n".join(bf_lines) + "\n")
    return path


def write_phi_fits(run: PipelineResult) -> str:
    """Extra stage after ``filter``: the boosts stage's per-region phi fits,
    written to phi.tsv."""
    partition = fit_region_phis(run)
    lines = ["region_start\tregion_end\tphi"]
    for (lo, hi), phi in zip(partition.ranges, partition.phis):
        lines.append(f"{lo}\t{hi}\t{phi:.10g}")
    lines.append(f"# global_phi = {partition.global_phi():.10g}")
    return run.emit("phi.tsv", "\n".join(lines) + "\n")


def scan_kappas(run: PipelineResult, kappas) -> str:
    """Extra stage after ``boosts``: EMBFDR curves across ``kappas`` on the
    post-QC design, factored by the EM filter's rank rule, written to
    kappa_scan.tsv."""
    cfg, ds = run.config, run.dataset
    design = cfg.filtering.factor(ds.G, np.arange(ds.p))
    rows = kappa_scan(design, ds.y, run.boosts, cfg.em, kappas, DEFAULT_GAMMA_GRID)
    return run.emit("kappa_scan.tsv", kappa_scan_tsv(rows))


def _write_manifest(run: PipelineResult) -> None:
    man = [
        f"spatialboost_version = {__version__}",
        f"numpy_version = {np.__version__}",
        *([f"command = {run.command}"] if run.command else []),
        "",
        "[config]",
        run.config.resolved_text(),
        "[checksums]",
    ]
    for path in run.outputs:
        man.append(f"{os.path.basename(path)} = {_checksum(path)}")
    atomic_write(os.path.join(run.out_dir, "manifest.txt"), "\n".join(man) + "\n")


# The pipeline's stages, in run order. Each takes the run context and
# returns the path of its main artifact (None when it writes none).
Stage = tuple[str, Callable[[PipelineResult], "str | None"]]
STAGES: tuple[Stage, ...] = (
    ("load", _load),
    ("filter", _qc),
    ("boosts", _boosts),
    ("em-filter", _em_filter),
    ("gibbs", _gibbs),
    ("report", _report),
)


def _recorded_outputs(out_dir: str) -> list[str]:
    """Files the previous run into ``out_dir`` wrote: the [checksums] of its
    manifest.txt, or the [outputs] of its FAILED marker."""
    names = []
    for marker, section in (("manifest.txt", "[checksums]"), ("FAILED", "[outputs]")):
        path = os.path.join(out_dir, marker)
        if os.path.isfile(path):
            with open(path) as fh:
                listed = fh.read().partition(f"\n{section}\n")[2]
            names += [ln.split(" = ")[0] for ln in listed.splitlines()]
    return names


def run_stages(
    config: RunConfig, stages: Sequence[Stage], command: str = ""
) -> PipelineResult:
    """Run ``stages`` in order over one run context, then write the manifest,
    which records ``command`` (the CLI subcommand and its flags) if given.

    First the files the previous run into ``config.out_dir`` recorded are
    removed, with its manifest and FAILED marker; a run that would remove
    one of its own input files raises ConfigurationError instead. Every
    artifact, the resolved config and the checksums in manifest.txt are
    persisted there; on failure a FAILED marker names the broken stage and
    the files written.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    stale = [
        os.path.join(config.out_dir, os.path.basename(name))
        for name in _recorded_outputs(config.out_dir) + ["manifest.txt", "FAILED"]
    ]
    inputs = {config.genotypes, config.genes, config.relevances} - {None, ""}
    inputs = {os.path.realpath(f) for f in inputs}
    for path in stale:
        if os.path.realpath(path) in inputs:
            raise ConfigurationError(
                f"{path} is an input of this run and an output of the previous"
                f" run in {config.out_dir}; choose another output directory"
            )
    for path in stale:
        if os.path.isfile(path):
            os.remove(path)
    run = PipelineResult(config, command)
    try:
        for stage, fn in stages:
            run.artifact = fn(run)
        stage = "manifest"
        _write_manifest(run)
    except Exception as exc:
        written = "".join(f"{os.path.basename(p)}\n" for p in run.outputs)
        atomic_write(
            os.path.join(config.out_dir, "FAILED"),
            f"stage = {stage}\nerror = {exc}\n\n[outputs]\n{written}",
        )
        raise PipelineError(stage, exc) from exc
    return run


def run_pipeline(
    config: RunConfig,
    until: str = "report",
    extra: Stage | None = None,
    command: str = "",
) -> PipelineResult:
    """Run the stages of ``STAGES`` up to and including ``until``, then the
    ``extra`` stage if given, through ``run_stages``."""
    names = [name for name, _ in STAGES]
    if until not in names:
        raise ConfigurationError(f"unknown stage '{until}'")
    stages = STAGES[: names.index(until) + 1] + ((extra,) if extra else ())
    return run_stages(config, stages, command)
