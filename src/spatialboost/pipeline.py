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
import os
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import chdtrc

from spatialboost import __version__
from spatialboost.em import (
    FilterConfig,
    Hyperparameters,
    em_filter_pipeline,
)
from spatialboost.errors import (
    ConfigurationError,
    ParseError,
    PipelineError,
)
from spatialboost.genome import (
    BoostVector,
    Gene,
    SnpLocus,
    build_blocks,
    compute_boosts,
    fit_phi_by_region,
    partition_regions,
)
from spatialboost.inference import SelectionReport, bfdr, centroid
from spatialboost.linalg import select_rank, truncate_design
from spatialboost.mcmc import gibbs_run

MISSING_CODE = "."


@dataclass
class Dataset:
    """Phenotype, intercept-extended design, and aligned marker metadata."""

    y: np.ndarray  # {0,1}^n
    X: np.ndarray  # n x (p+1); column 0 all ones; markers in {0,1,2}
    snps: list[SnpLocus]
    imputed: int = 0  # count of imputed genotype cells

    def __post_init__(self):
        n, p1 = self.X.shape
        if len(self.snps) != p1 - 1:
            raise ConfigurationError("marker metadata misaligned with design")
        if not np.all(self.X[:, 0] == 1.0):
            raise ConfigurationError("design column 0 must be the intercept")
        if not np.isin(self.X[:, 1:], (0.0, 1.0, 2.0)).all():
            raise ConfigurationError("marker entries must be in {0,1,2}")
        if not np.isin(self.y, (0, 1)).all():
            raise ConfigurationError("phenotypes must be in {0,1}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1] - 1

    @property
    def markers(self) -> np.ndarray:
        return self.X[:, 1:]

    def subset_markers(self, keep: np.ndarray) -> "Dataset":
        keep = np.asarray(keep, dtype=int)
        cols = np.concatenate([[0], keep + 1])
        return Dataset(
            y=self.y,
            X=self.X[:, cols],
            snps=[self.snps[j] for j in keep],
            imputed=self.imputed,
        )


def load_genotypes(path: str) -> Dataset:
    """Parse the self-describing genotype table; ``.`` cells are imputed to
    the rounded mean dosage of the observed entries in their column."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty genotype file")
    header = lines[0].split("\t")
    if header[0] != "#pheno":
        raise ParseError(f"{path}:1: header must start with '#pheno'")
    snps = []
    for k, col in enumerate(header[1:], start=1):
        parts = col.split(":")
        if len(parts) != 3:
            raise ParseError(
                f"{path}:1: SNP header '{col}' is not id:chrom:pos"
            )
        sid, chrom, pos = parts
        try:
            snps.append(SnpLocus(sid, int(pos), chrom))
        except ValueError as exc:
            raise ParseError(f"{path}:1: bad position in '{col}': {exc}") from exc

    p = len(snps)
    y_rows, g_rows = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = ln.split("\t")
        if len(cells) != p + 1:
            raise ParseError(
                f"{path}:{lineno}: expected {p + 1} fields, got {len(cells)}"
            )
        if cells[0] not in ("0", "1"):
            raise ParseError(
                f"{path}:{lineno}: phenotype '{cells[0]}' not in {{0,1}}"
            )
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
    X = np.column_stack([np.ones(G.shape[0]), G])
    return Dataset(y=np.array(y_rows), X=X, snps=snps, imputed=imputed)


def load_genes(path: str) -> list[Gene]:
    genes = []
    seen = set()
    with open(path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            if not ln.strip() or ln.startswith("#"):
                continue
            cells = ln.split()
            if len(cells) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields")
            chrom, start, end, gid = cells
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
    if path is not None:
        with open(path) as fh:
            for lineno, ln in enumerate(fh, start=1):
                if not ln.strip() or ln.startswith("#"):
                    continue
                cells = ln.split()
                if len(cells) != 2:
                    raise ParseError(f"{path}:{lineno}: expected 2 fields")
                gid, raw = cells
                try:
                    val = float(raw)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad score '{raw}'") from exc
                if val < 0:
                    raise ParseError(f"{path}:{lineno}: negative score for {gid}")
                if gid in scores:
                    raise ParseError(f"{path}:{lineno}: duplicate gene id {gid}")
                scores[gid] = val
    return np.array([scores.get(g.id, 1.0) for g in genes])


def minor_allele_frequencies(dataset: Dataset) -> np.ndarray:
    f = dataset.markers.sum(axis=0) / (2.0 * dataset.n)
    return np.minimum(f, 1.0 - f)


def maf_filter(dataset: Dataset, min_maf: float = 0.05) -> tuple[Dataset, np.ndarray]:
    """Keep markers with minor allele frequency strictly above ``min_maf``."""
    maf = minor_allele_frequencies(dataset)
    keep = np.flatnonzero(maf > min_maf)
    return dataset.subset_markers(keep), keep


def hwe_pvalues(dataset: Dataset) -> np.ndarray:
    """One-df chi-square goodness of fit of genotype counts against the
    random-mating proportions (q^2, 2pq, p^2)."""
    G = dataset.markers
    n = dataset.n
    counts = np.stack([(G == g).sum(axis=0) for g in (0.0, 1.0, 2.0)])
    f = G.sum(axis=0) / (2.0 * n)
    expected = np.stack([(1 - f) ** 2, 2 * f * (1 - f), f**2]) * n
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (counts - expected) ** 2 / expected, 0.0)
    stat = terms.sum(axis=0)
    return chdtrc(1, stat)


def hwe_filter(dataset: Dataset, alpha: float = 1e-6) -> tuple[Dataset, np.ndarray]:
    """Drop markers whose equilibrium p-value falls below ``alpha``."""
    pv = hwe_pvalues(dataset)
    keep = np.flatnonzero(~(pv < alpha))
    return dataset.subset_markers(keep), keep


@dataclass
class RunConfig:
    genotypes: str = ""
    genes: str = ""
    relevances: str | None = None
    out_dir: str = "out"
    seed: int = 0
    phi: float | None = None  # None -> fit from correlation decay
    min_maf: float = 0.05
    hwe_alpha: float = 1e-6
    rank_tol: float = 0.01
    rank: int | None = None
    filter_fraction: float = 0.25
    filter_max_rounds: int = 5
    gibbs_iters: int = 1000
    gibbs_burnin: int | None = None
    gammas: tuple[float, ...] = (1.0,)
    em: Hyperparameters = field(
        default_factory=lambda: Hyperparameters(
            kappa=1000.0, nu=3.0, lam=0.02, xi0=-4.0, xi1=2.0
        )
    )
    gibbs: Hyperparameters = field(
        default_factory=lambda: Hyperparameters(
            kappa=100.0, nu=3.0, lam=0.02, xi0=-3.0, xi1=2.0
        )
    )

    def __post_init__(self):
        if not 0 < self.filter_fraction < 1:
            raise ConfigurationError("filter fraction must be in (0,1)")

    def resolved_text(self) -> str:
        lines = []
        for f_ in fields(self):
            val = getattr(self, f_.name)
            if isinstance(val, Hyperparameters):
                for hf in fields(val):
                    lines.append(f"{f_.name}.{hf.name} = {getattr(val, hf.name)}")
            else:
                lines.append(f"{f_.name} = {val}")
        return "\n".join(lines) + "\n"


_HYPER_KEYS = {"kappa", "nu", "lam", "xi0", "xi1", "phi", "s"}


def parse_config(path: str) -> RunConfig:
    """Flat ``key = value`` config with stage prefixes em./gibbs./filter."""
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in ln.split("=", 1))
            raw[key] = val

    cfg = RunConfig()
    em_kw, gibbs_kw = {}, {}
    for key, val in raw.items():
        if key.startswith("em."):
            sub = key[3:]
            if sub not in _HYPER_KEYS:
                raise ConfigurationError(f"unknown config key '{key}'")
            em_kw[sub] = float(val)
        elif key.startswith("gibbs."):
            sub = key[6:]
            if sub in _HYPER_KEYS:
                gibbs_kw[sub] = float(val)
            elif sub == "iters":
                cfg.gibbs_iters = int(val)
            elif sub == "burnin":
                cfg.gibbs_burnin = int(val)
            else:
                raise ConfigurationError(f"unknown config key '{key}'")
        elif key.startswith("filter."):
            sub = key[7:]
            if sub == "fraction":
                cfg.filter_fraction = float(val)
            elif sub == "max_rounds":
                cfg.filter_max_rounds = int(val)
            else:
                raise ConfigurationError(f"unknown config key '{key}'")
        elif key == "genotypes":
            cfg.genotypes = val
        elif key == "genes":
            cfg.genes = val
        elif key == "relevances":
            cfg.relevances = val or None
        elif key == "out_dir":
            cfg.out_dir = val
        elif key == "seed":
            cfg.seed = int(val)
        elif key == "phi":
            cfg.phi = None if val in ("fit", "") else float(val)
        elif key == "min_maf":
            cfg.min_maf = float(val)
        elif key == "hwe_alpha":
            cfg.hwe_alpha = float(val)
        elif key == "rank_tol":
            cfg.rank_tol = float(val)
        elif key == "rank":
            cfg.rank = int(val)
        elif key == "gammas":
            cfg.gammas = tuple(float(g) for g in val.split(","))
        else:
            raise ConfigurationError(f"unknown config key '{key}'")
    for kw in (em_kw, gibbs_kw):
        kw.setdefault("phi", cfg.phi or 30_000.0)
    base_em = {f_.name: getattr(cfg.em, f_.name) for f_ in fields(cfg.em)}
    base_gb = {f_.name: getattr(cfg.gibbs, f_.name) for f_ in fields(cfg.gibbs)}
    cfg.em = Hyperparameters(**{**base_em, **em_kw})
    cfg.gibbs = Hyperparameters(**{**base_gb, **gibbs_kw})
    if not 0 < cfg.filter_fraction < 1:
        raise ConfigurationError("filter fraction must be in (0,1)")
    return cfg


def substream(root_seed: int, name: str) -> np.random.Generator:
    """Named, reproducible random substream derived from the root seed."""
    digest = hashlib.sha256(name.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([root_seed, *words]))


def atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _checksum(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class PipelineResult:
    dataset: Dataset
    boosts: BoostVector
    survivors: np.ndarray
    pi_hat: np.ndarray | None
    reports: dict[float, SelectionReport]
    out_dir: str


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Load -> filter -> boosts -> truncate -> EM filter -> Gibbs -> report.

    Every stage's outputs plus the resolved config are persisted under
    ``config.out_dir``; on failure a FAILED marker names the broken stage.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    outputs: list[str] = []

    def emit(name: str, text: str) -> None:
        path = os.path.join(config.out_dir, name)
        atomic_write(path, text)
        outputs.append(path)

    stage = "load"
    try:
        dataset = load_genotypes(config.genotypes)
        genes = load_genes(config.genes)
        relevances = load_relevances(config.relevances, genes)

        stage = "filter"
        maf_ds, maf_keep = maf_filter(dataset, config.min_maf)
        hwe_ds, hwe_keep = hwe_filter(maf_ds, config.hwe_alpha)
        kept = maf_keep[hwe_keep]
        lines = ["snp\tmaf_pass\thwe_pass"]
        kept_set = set(kept.tolist())
        maf_set = set(maf_keep.tolist())
        for j, snp in enumerate(dataset.snps):
            lines.append(
                f"{snp.id}\t{int(j in maf_set)}\t{int(j in kept_set)}"
            )
        emit("filters.tsv", "\n".join(lines) + "\n")
        dataset = hwe_ds

        stage = "boosts"
        blocks = build_blocks(genes, relevances)
        if config.phi is not None:
            phi = config.phi
            phi_source = "fixed"
        else:
            partition = partition_regions(dataset.snps, genes)
            partition = fit_phi_by_region(
                dataset.markers, dataset.snps, partition
            )
            phi = partition.global_phi()
            phi_source = "fit (mean of region fits)"
        boosts = compute_boosts(dataset.snps, blocks, phi)
        lines = [f"# phi={phi:.10g}\tsource={phi_source}", "snp\tboost"]
        for snp, b in zip(dataset.snps, boosts.values):
            lines.append(f"{snp.id}\t{b:.10g}")
        emit("boosts.tsv", "\n".join(lines) + "\n")

        stage = "em-filter"
        if config.filter_max_rounds >= 1:
            trace = em_filter_pipeline(
                dataset.markers,
                dataset.y,
                boosts,
                config.em,
                FilterConfig(
                    max_rounds=config.filter_max_rounds,
                    fraction=config.filter_fraction,
                    rank_tol=config.rank_tol,
                    rank=config.rank,
                ),
            )
            survivors = trace.final_survivors
            emit("em_trace.tsv", trace.to_tsv([s.id for s in dataset.snps]))
            final_state = trace.rounds[-1].state
        else:
            survivors = np.arange(dataset.p)
            trace = None
            final_state = None

        stage = "gibbs"
        Xs = np.column_stack([np.ones(dataset.n), dataset.markers[:, survivors]])
        l = config.rank or select_rank(Xs, config.rank_tol)
        design = truncate_design(Xs, min(l, min(Xs.shape)))
        log_buf = io.StringIO()
        chain = gibbs_run(
            design,
            dataset.y,
            boosts.values[survivors],
            config.gibbs,
            iters=config.gibbs_iters,
            burnin=config.gibbs_burnin,
            seed=int(substream(config.seed, "gibbs.chain0").integers(2**31)),
            draw_log=log_buf,
        )
        emit("gibbs_draws.tsv", log_buf.getvalue())

        stage = "report"
        surv_set = {int(j): k for k, j in enumerate(survivors)}
        lines = ["snp\tchrom\tpos\tboost\tetheta_em\tpi_hat\tselected_gamma1"]
        sel1 = centroid(chain.pi_hat[1:], 1.0)
        for j, snp in enumerate(dataset.snps):
            if j in surv_set:
                k = surv_set[j]
                et = (
                    f"{final_state.etheta[1 + k]:.10g}"
                    if final_state is not None
                    else "NA"
                )
                ph = f"{chain.pi_hat[1 + k]:.10g}"
                sel = int(sel1[k])
            else:
                et, ph, sel = "NA", "NA", 0
            lines.append(
                f"{snp.id}\t{snp.chromosome}\t{snp.position}"
                f"\t{boosts.values[j]:.10g}\t{et}\t{ph}\t{sel}"
            )
        emit("report.tsv", "\n".join(lines) + "\n")

        reports = {}
        bf_lines = ["gamma\tthreshold\tbfdr\tselected"]
        ids = [dataset.snps[int(j)].id for j in survivors]
        for g in config.gammas:
            rep = SelectionReport.build(ids, chain.pi_hat[1:], g)
            reports[g] = rep
            metric = "NA" if rep.metric is None else f"{rep.metric:.10g}"
            bf_lines.append(
                f"{g:.10g}\t{1 / (1 + g):.10g}\t{metric}\t{int(rep.selected.sum())}"
            )
            emit(f"selection_gamma{g:g}.tsv", rep.to_tsv())
        emit("bfdr.tsv", "\n".join(bf_lines) + "\n")

        stage = "manifest"
        man = [
            f"spatialboost_version = {__version__}",
            f"numpy_version = {np.__version__}",
            "",
            "[config]",
            config.resolved_text(),
            "[checksums]",
        ]
        for path in outputs:
            man.append(f"{os.path.basename(path)} = {_checksum(path)}")
        atomic_write(
            os.path.join(config.out_dir, "manifest.txt"), "\n".join(man) + "\n"
        )
    except Exception as exc:
        atomic_write(
            os.path.join(config.out_dir, "FAILED"),
            f"stage = {stage}\nerror = {exc}\n",
        )
        raise PipelineError(stage, exc) from exc

    failed = os.path.join(config.out_dir, "FAILED")
    if os.path.exists(failed):
        os.remove(failed)
    return PipelineResult(
        dataset=dataset,
        boosts=boosts,
        survivors=survivors,
        pi_hat=chain.pi_hat,
        reports=reports,
        out_dir=config.out_dir,
    )
