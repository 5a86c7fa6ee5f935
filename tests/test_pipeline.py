import errno
import hashlib
import io
import os
import re
import threading
import weakref
from dataclasses import fields, is_dataclass, replace
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spatialboost._special import chi2_sf_1df
from spatialboost.em import FilterConfig, Hyperparameters, em_fit
from spatialboost.errors import (
    ConfigurationError,
    NumericalError,
    ParseError,
    PipelineError,
)
from spatialboost import pipeline
from spatialboost.genome import Gene, SnpLocus
from spatialboost.inference import embfdr_curve
from spatialboost.mcmc import ChainSummary
from spatialboost.pipeline import (
    _CHUNK,
    DEFAULT_GAMMA_GRID,
    Dataset,
    _KEYS,
    PipelineResult,
    _checksum,
    RunConfig,
    atomic_write,
    atomic_write_bytes,
    hwe_filter,
    hwe_pvalues,
    load_genes,
    load_genotypes,
    load_relevances,
    maf_filter,
    parse_config,
    run_pipeline,
    scan_kappas,
    substream,
    write_npz,
)
from tests.conftest import npz_bytes, peak_bytes, per_cell_load_genotypes

GENO_SMALL = """#pheno\trs1:1:100\trs2:1:200
1\t0\t2
0\t1\t1
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_genotypes_small(tmp_path):
    ds = load_genotypes(_write(tmp_path, "g.tsv", GENO_SMALL))
    assert ds.n == 2 and ds.p == 2
    assert ds.G.dtype == np.int8
    assert ds.G.tolist() == [[0, 2], [1, 1]]
    assert ds.y.tolist() == [1, 0]
    assert [s.id for s in ds.snps] == ["rs1", "rs2"]
    assert ds.snps[0].position == 100
    assert ds.imputed == 0


def test_load_genotypes_imputes_missing(tmp_path):
    text = "#pheno\trs1:1:100\n1\t2\n0\t.\n1\t1\n"
    ds = load_genotypes(_write(tmp_path, "g.tsv", text))
    assert ds.imputed == 1
    # observed mean 1.5 rounds to 2
    assert ds.G[:, 0].tolist() == [2, 2, 1]


def test_load_genotypes_errors_name_lines(tmp_path):
    bad_width = "#pheno\trs1:1:100\n1\t0\t2\n"
    with pytest.raises(ParseError, match=":2"):
        load_genotypes(_write(tmp_path, "a.tsv", bad_width))
    bad_pheno = "#pheno\trs1:1:100\n2\t0\n"
    with pytest.raises(ParseError, match="phenotype"):
        load_genotypes(_write(tmp_path, "b.tsv", bad_pheno))
    bad_geno = "#pheno\trs1:1:100\n1\t3\n"
    with pytest.raises(ParseError, match="genotype"):
        load_genotypes(_write(tmp_path, "c.tsv", bad_geno))
    bad_header = "pheno\trs1:1:100\n1\t0\n"
    with pytest.raises(ParseError, match="#pheno"):
        load_genotypes(_write(tmp_path, "d.tsv", bad_header))
    bad_snp = "#pheno\trs1:100\n1\t0\n"
    with pytest.raises(ParseError, match="id:chrom:pos"):
        load_genotypes(_write(tmp_path, "e.tsv", bad_snp))


@pytest.mark.parametrize(
    "header", ["#pheno\trs1:1:100", "#pheno\trs1:1:100\trs2:1:200"]
)
def test_load_genotypes_header_without_rows(tmp_path, header):
    path = _write(tmp_path, "head_only.tsv", header + "\n\n")
    with pytest.raises(ParseError, match=r"^\S*head_only\.tsv: no genotype rows"):
        load_genotypes(path)


def test_load_genotypes_errors_count_blank_lines(tmp_path):
    # line 2 is blank and line 4 holds genotype 7
    text = "#pheno\trs1:1:100\n\n1\t0\n1\t7\n"
    with pytest.raises(ParseError, match=r"^\S*blank\.tsv:4: genotype '7'"):
        load_genotypes(_write(tmp_path, "blank.tsv", text))
    text = "\n#pheno\trs1:1:100\n1\t0\n\n\n1\t0\t1\n"
    with pytest.raises(ParseError, match=r"^\S*wide\.tsv:6: expected 2 fields"):
        load_genotypes(_write(tmp_path, "wide.tsv", text))
    with pytest.raises(ParseError, match=r"^\S*head\.tsv:2: header"):
        load_genotypes(_write(tmp_path, "head.tsv", "\npheno\trs1:1:100\n1\t0\n"))


def test_load_genotypes_rejects_duplicate_snp_ids(tmp_path):
    text = "\n#pheno\trs1:1:100\trs2:1:200\trs1:1:300\n1\t0\t2\t1\n"
    with pytest.raises(ParseError, match=r"^\S*dup\.tsv:2: duplicate SNP id rs1$"):
        load_genotypes(_write(tmp_path, "dup.tsv", text))


def _genotype_text(rng, n, p, missing, sep="\n"):
    header = "\t".join(["#pheno"] + [f"rs{j}:{1 + j % 3}:{100 * j}" for j in range(p)])
    codes = np.array(["0", "1", "2"])[rng.integers(0, 3, (n, p))]
    if missing:
        codes[rng.random((n, p)) < missing] = "."
        codes[:, 0] = "."  # a column with no observed cell imputes to 0
    rows = [
        "\t".join([str(rng.integers(0, 2))] + list(r)) for r in codes
    ]
    return sep.join([header] + rows) + sep


def _assert_same_dataset(got, want):
    assert got.G.dtype == want.G.dtype == np.int8
    assert np.array_equal(got.G, want.G)
    assert np.array_equal(got.y, want.y) and got.y.dtype == want.y.dtype
    assert got.snps == want.snps
    assert got.imputed == want.imputed


# rows of 300 SNPs per LOAD_BLOCK decoding block (602 bytes a row)
_BLOCK_300 = pipeline.LOAD_BLOCK // 602


@pytest.mark.parametrize(
    "n, p, missing",
    [
        (1, 1, 0.0), (9, 6, 0.0), (7, 5, 0.3), (40, 90, 0.05),
        # one row, exactly one block, one block and a row, and four blocks;
        # column 0 is missing in every row, so every block has missing cells
        (1, 300, 0.05), (_BLOCK_300, 300, 0.05), (_BLOCK_300 + 1, 300, 0.05),
        (3 * _BLOCK_300 + 2, 300, 0.05),
    ],
)
def test_load_genotypes_matches_per_cell_oracle(tmp_path, n, p, missing):
    rng = np.random.default_rng(n * 1000 + p)
    text = _genotype_text(rng, n, p, missing)
    path = _write(tmp_path, "g.tsv", text)
    _assert_same_dataset(load_genotypes(path), per_cell_load_genotypes(path))
    # the same table with CRLF line ends and blank lines between rows
    lines = text.split("\n")
    odd = "\r\n".join(lines[:2] + ["", "  "] + lines[2:])
    path = _write(tmp_path, "crlf.tsv", odd)
    _assert_same_dataset(load_genotypes(path), per_cell_load_genotypes(path))
    # and with a blank line after every row, LF and CRLF
    for sep in ("\n", "\r\n"):
        path = _write(tmp_path, "blank.tsv", (sep + sep).join(lines[:-1]) + sep)
        _assert_same_dataset(load_genotypes(path), per_cell_load_genotypes(path))


def test_load_genotypes_memory_does_not_grow_with_missing_cells(tmp_path):
    # missing cells stay in G as a sentinel code until they are imputed in
    # row blocks, so beside G the load holds about one block's text and
    # masks, whatever the share of missing cells
    n, p = 8 * _BLOCK_300, 300
    peaks = {}
    for missing in (0.0, 0.2, 0.5):
        rng = np.random.default_rng(7)
        path = _write(tmp_path, f"g{missing}.tsv", _genotype_text(rng, n, p, missing))
        peaks[missing] = peak_bytes(lambda: load_genotypes(path))
    assert max(peaks.values()) - min(peaks.values()) < pipeline.LOAD_BLOCK, peaks
    assert max(peaks.values()) < n * p + 8 * pipeline.LOAD_BLOCK, peaks


# rows of 2 SNPs per LOAD_BLOCK decoding block (6 bytes a row)
_BLOCK_2 = pipeline.LOAD_BLOCK // 6


@pytest.mark.parametrize(
    "row",
    [
        "1\t0\t3",  # bad genotype code
        "2\t0\t1",  # bad phenotype
        "1\t0\t\t",  # empty cell: right width, wrong tabs
        "1\t01\t1",  # a two-character cell
        "1\t0",  # too few fields
        "1\t0 \t1",  # trailing space in a cell
        "1\t\u00e9\t1",  # non-ASCII cell of the right width
        "1 0\t1",  # space for a tab
    ],
)
def test_load_genotypes_errors_match_per_cell_oracle(tmp_path, row):
    # ``before`` good rows, a blank line after the first, then the bad row:
    # in the first decoding block, or in the third
    for before in (1, 2 * _BLOCK_2 + 3):
        good = "0\t1\t.\n\n" + "1\t2\t2\n" * (before - 1)
        text = "#pheno\trs1:1:100\trs2:1:200\n" + good + row + "\n1\t2\t2\n"
        path = _write(tmp_path, "bad.tsv", text)
        with pytest.raises(ParseError) as want:
            per_cell_load_genotypes(path)
        with pytest.raises(ParseError) as got:
            load_genotypes(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}:{before + 3}: "), got.value


@pytest.mark.parametrize("sep", [b"\n", b"\r\n"])
def test_load_genotypes_undecodable_row_past_the_first_block(tmp_path, sep):
    rows = [b"#pheno\trs1:1:100\trs2:1:200", b""] + [b"1\t0\t2"] * (2 * _BLOCK_2)
    rows.insert(_BLOCK_2 + 7, b"1\t\xff\t2")
    path = tmp_path / "bad.tsv"
    path.write_bytes(sep.join(rows) + sep)
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:{_BLOCK_2 + 8}: "
                       r"not UTF-8 text \(invalid start byte\)$"):
        load_genotypes(str(path))


def test_load_genes(tmp_path):
    path = _write(tmp_path, "genes.bed", "1\t10\t200\tga\n2\t5\t50\tgb\n")
    genes = load_genes(path)
    assert [g.id for g in genes] == ["ga", "gb"]
    assert genes[1].chromosome == "2"

    with pytest.raises(ParseError, match="start"):
        load_genes(_write(tmp_path, "bad1.bed", "1\t20\t10\tga\n"))
    with pytest.raises(ParseError, match="duplicate"):
        load_genes(_write(tmp_path, "bad2.bed", "1\t1\t2\tga\n1\t3\t4\tga\n"))


def test_load_relevances(tmp_path):
    genes = [Gene("ga", 0, 10), Gene("gb", 20, 30)]
    assert load_relevances(None, genes).tolist() == [1.0, 1.0]

    path = _write(tmp_path, "rel.tsv", "ga\t2.5\n")
    assert load_relevances(path, genes).tolist() == [2.5, 1.0]

    with pytest.raises(ParseError, match="negative"):
        load_relevances(_write(tmp_path, "bad.tsv", "ga\t-1\n"), genes)
    with pytest.raises(ParseError, match="duplicate"):
        load_relevances(_write(tmp_path, "dup.tsv", "ga\t1\nga\t2\n"), genes)


@pytest.mark.parametrize("raw", ["nan", "inf"])
def test_load_relevances_rejects_non_finite_scores(tmp_path, raw):
    genes = [Gene("ga", 0, 10), Gene("gb", 20, 30)]
    path = _write(tmp_path, "rel.tsv", f"gb\t1\nga\t{raw}\n")
    with pytest.raises(ParseError, match=f"^{re.escape(path)}:2: non-finite score for ga$"):
        load_relevances(path, genes)


def _dataset(markers, y=None):
    G = np.asarray(markers, dtype=np.int8)
    n, p = G.shape
    if y is None:
        y = np.zeros(n, dtype=int)
    snps = [SnpLocus(f"rs{j}", 100 * (j + 1)) for j in range(p)]
    return Dataset(y=np.asarray(y), G=G, snps=snps)


def test_dataset_invariants():
    G = np.array([[0, 1], [1, 1]], dtype=np.int8)
    y, snps = np.zeros(2, dtype=int), [SnpLocus("a", 1), SnpLocus("b", 2)]
    Dataset(y=y, G=G, snps=snps)
    with pytest.raises(ConfigurationError, match="int8"):
        Dataset(y=y, G=G.astype(float), snps=snps)
    with pytest.raises(ConfigurationError, match="metadata"):
        Dataset(y=y, G=G, snps=snps[:1])
    with pytest.raises(ConfigurationError, match="3 phenotypes for 2"):
        Dataset(y=np.zeros(3, dtype=int), G=G, snps=snps)
    with pytest.raises(ConfigurationError):
        _dataset([[3], [0]])
    with pytest.raises(ConfigurationError):
        _dataset([[-1], [0]])
    with pytest.raises(ConfigurationError):
        _dataset([[1], [0]], y=[2, 0])


def test_maf_hand_example():
    # f = 5/8, so the minor allele frequency is exactly 0.375
    G = np.array([[0], [1], [2], [2]], dtype=np.int8)
    assert maf_filter(G, 0.05).tolist() == [True]
    assert maf_filter(G, 0.374).tolist() == [True]
    assert maf_filter(G, 0.375).tolist() == [False]


def test_maf_drops_monomorphic():
    G = np.array([[0, 1], [0, 2], [0, 1]], dtype=np.int8)
    assert maf_filter(G, 0.0).tolist() == [False, True]


def test_hwe_exact_proportions_retained():
    # f = 0.5, counts (1,2,1) equal the expected (q^2, 2pq, p^2) * 4
    G = np.array([[0], [1], [1], [2]], dtype=np.int8)
    assert hwe_pvalues(G)[0] == pytest.approx(1.0)
    assert hwe_filter(G, alpha=0.05).tolist() == [True]


def test_hwe_all_heterozygous_dropped():
    G = np.ones((100, 1), dtype=np.int8)
    pv = hwe_pvalues(G)
    # chi-square statistic is exactly 100
    from scipy.stats import chi2

    assert pv[0] == pytest.approx(chi2.sf(100.0, df=1))
    assert hwe_filter(G, alpha=1e-6).tolist() == [False]
    assert hwe_filter(G, alpha=0.0).tolist() == [True]


def test_qc_masks_of_a_column_subset_are_the_subset_of_the_masks(rng):
    # each filter reads its columns alone, so the filter stage may take both
    # masks over the loaded columns and copy the markers that pass both once
    G = rng.integers(0, 3, size=(60, 25)).astype(np.int8)
    G[:, 3] = 1  # HWE violation
    G[:, 7] = 0  # monomorphic
    for cols in (np.arange(25), np.arange(0, 25, 3), rng.permutation(25)[:11]):
        sub = G[:, cols]
        assert np.array_equal(maf_filter(sub, 0.05), maf_filter(G, 0.05)[cols])
        assert np.array_equal(hwe_pvalues(sub), hwe_pvalues(G)[cols])
        assert np.array_equal(hwe_filter(sub, 1e-6), hwe_filter(G, 1e-6)[cols])


def _filter_stage(tmp_path, G):
    """The filter stage run on ``G`` at the default thresholds, writing
    filters.tsv to tmp_path; returns the run and the loaded dataset."""
    run = PipelineResult(RunConfig(out_dir=str(tmp_path)))
    run.dataset = replace(_dataset(G), imputed=5)
    loaded = run.dataset
    pipeline._qc(run)
    return run, loaded


def test_column_alignment_round_trip(rng, tmp_path):
    G = rng.integers(0, 3, size=(40, 12)).astype(np.int8)
    G[:, 4] = 0
    run, loaded = _filter_stage(tmp_path, G)
    kept = [j for j, row in enumerate(_filter_rows(tmp_path)) if row[2] == "1"]
    ds = run.dataset
    assert ds.G.dtype == np.int8
    assert 0 < ds.p == len(kept) < loaded.p
    assert ds.y is loaded.y and ds.imputed == 5
    for k, j in enumerate(kept):
        assert ds.snps[k].id == loaded.snps[j].id
        assert np.array_equal(ds.G[:, k], loaded.G[:, j])


def _filter_rows(out_dir):
    lines = (Path(out_dir) / "filters.tsv").read_text().splitlines()
    assert lines[0] == "snp\tmaf_pass\thwe_pass"
    return [ln.split("\t") for ln in lines[1:]]


def _float_qc_keep(G, min_maf, alpha):
    """MAF then HWE keep indices from the filters' formulas evaluated on
    float64 markers: the oracle for the int8 path."""
    X = np.asarray(G, dtype=float)
    n = X.shape[0]
    f = X.sum(axis=0) / (2.0 * n)
    maf_keep = np.flatnonzero(np.minimum(f, 1.0 - f) > min_maf)
    X = X[:, maf_keep]
    counts = np.stack([(X == g).sum(axis=0) for g in (0.0, 1.0, 2.0)])
    f = X.sum(axis=0) / (2.0 * n)
    expected = np.stack([(1 - f) ** 2, 2 * f * (1 - f), f**2]) * n
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (counts - expected) ** 2 / expected, 0.0)
    pv = chi2_sf_1df(terms.sum(axis=0))
    return maf_keep, pv, np.flatnonzero(~(pv < alpha))


def test_int8_qc_keeps_the_float_path_markers(rng):
    G = rng.integers(0, 3, size=(120, 60)).astype(np.int8)
    G[:, 3] = 1  # HWE violation
    G[:, 7] = 0  # monomorphic
    G[:, 11] = 0
    G[:12, 11] = 1  # maf exactly 0.05: dropped at min_maf 0.05
    G[:, 12] = 0
    G[:13, 12] = 1  # just above
    for j in range(20, 30):  # excess homozygotes, graded
        hom = rng.random(120) < 0.1 * (j - 19)
        G[hom, j] = 2 * (G[hom, j] > 0)
    for min_maf, alpha in ((0.05, 1e-6), (0.2, 1e-3), (0.0, 0.05)):
        maf_keep, pv, hwe_keep = _float_qc_keep(G, min_maf, alpha)
        maf_pass = maf_filter(G, min_maf)
        assert maf_pass.dtype == bool and maf_pass.shape == (60,)
        assert np.array_equal(np.flatnonzero(maf_pass), maf_keep)
        assert np.array_equal(hwe_pvalues(G)[maf_keep], pv)
        hwe_pass = hwe_filter(G, alpha)
        assert hwe_pass.dtype == bool and hwe_pass.shape == (60,)
        assert np.array_equal(np.flatnonzero(hwe_pass[maf_keep]), hwe_keep)
        assert 0 < hwe_keep.size < maf_keep.size < G.shape[1]
    maf_pass = maf_filter(G, 0.05)
    assert not maf_pass[11] and maf_pass[12]


def test_filter_stage_flags_and_counts_match_the_oracle(rng, tmp_path):
    # filters.tsv flags every marker read: maf_pass from the MAF filter, and
    # hwe_pass = 1 only for a marker that passes both filters
    n, p = 120, 40
    G = rng.binomial(2, rng.uniform(0.1, 0.5, p), size=(n, p)).astype(np.int8)
    G[:, 5] = 0
    G[:3, 5] = 1  # rare, in equilibrium: fails MAF only
    G[:, 9] = 1  # all heterozygous: fails HWE only
    G[:, 17] = 0
    G[:4, 17] = 2  # rare, no heterozygotes: fails both
    cfg = RunConfig(out_dir=str(tmp_path))
    maf_pass = maf_filter(G, cfg.min_maf)
    hwe_pass = hwe_filter(G, cfg.hwe_alpha)
    assert (maf_pass[5], hwe_pass[5]) == (False, True)
    assert (maf_pass[9], hwe_pass[9]) == (True, False)
    assert (maf_pass[17], hwe_pass[17]) == (False, False)
    run, loaded = _filter_stage(tmp_path, G)
    maf_keep, _, hwe_keep = _float_qc_keep(G, cfg.min_maf, cfg.hwe_alpha)
    rows = _filter_rows(tmp_path)
    assert [r[0] for r in rows] == [s.id for s in loaded.snps]
    want_maf = np.isin(np.arange(p), maf_keep).astype(int).astype(str)
    want_hwe = np.isin(np.arange(p), maf_keep[hwe_keep]).astype(int).astype(str)
    assert [r[1] for r in rows] == want_maf.tolist()
    assert [r[2] for r in rows] == want_hwe.tolist()
    assert [rows[j][1:] for j in (5, 9, 17)] == [["0", "0"], ["1", "0"], ["0", "0"]]
    assert run.qc_counts == (p, maf_keep.size, hwe_keep.size)
    assert run.qc_counts[2] == run.dataset.p < run.qc_counts[1] < p


def test_filter_stage_copies_the_genotypes_once(tmp_path):
    # the masks hold a byte per column and the counts one block of rows at
    # a time, and the markers that pass both filters are copied once: the
    # stage's peak over the loaded matrix stays near one copy of it. When
    # every marker passes (here 1600 x ~2980, the markers of a larger draw
    # that pass), the stage keeps the loaded matrix and copies nothing: its
    # peak, the per-marker arrays and filters.tsv's lines, is a small share
    # of the matrix
    rng = np.random.default_rng(7)
    n, p = 400, 3000
    G = rng.binomial(2, rng.uniform(0.05, 0.5, p), size=(n, p)).astype(np.int8)
    run = PipelineResult(RunConfig(out_dir=str(tmp_path)))
    run.dataset = _dataset(G)
    peak = peak_bytes(lambda: pipeline._qc(run))
    assert 0.9 * p < run.dataset.p < p
    assert peak <= 1.5 * G.nbytes, peak / G.nbytes
    G = rng.binomial(2, rng.uniform(0.05, 0.5, p), size=(4 * n, p)).astype(np.int8)
    cfg = run.config
    kept = maf_filter(G, cfg.min_maf) & hwe_filter(G, cfg.hwe_alpha)
    passing = np.ascontiguousarray(G[:, kept])
    loaded = run.dataset = _dataset(passing)
    peak = peak_bytes(lambda: pipeline._qc(run))
    assert run.dataset is loaded and run.dataset.G is passing
    assert peak <= 0.25 * passing.nbytes, peak / passing.nbytes


def test_parse_config_round_trip(tmp_path):
    text = """
# a comment
genotypes = data/geno.tsv
genes = data/genes.bed
seed = 42
phi = 5000
em.kappa = 500
em.xi0 = -5
gibbs.kappa = 50
gibbs.iters = 300
gibbs.burnin = 60
filter.fraction = 0.2
filter.max_rounds = 3
gammas = 0.5,1,2
"""
    cfg = parse_config(_write(tmp_path, "run.cfg", text))
    assert cfg.genotypes == "data/geno.tsv"
    assert cfg.seed == 42
    assert cfg.phi == 5000.0
    assert cfg.em.kappa == 500.0 and cfg.em.xi0 == -5.0
    assert cfg.gibbs.kappa == 50.0
    assert cfg.gibbs_iters == 300 and cfg.gibbs_burnin == 60
    assert cfg.filtering.fraction == 0.2 and cfg.filtering.max_rounds == 3
    assert cfg.gammas == (0.5, 1.0, 2.0)


def _leaf_paths(obj, prefix=""):
    """Dotted paths of the fields reachable from ``obj`` that are not
    dataclasses themselves."""
    paths = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            paths += _leaf_paths(value, f"{prefix}{f.name}.")
        else:
            paths.append(prefix + f.name)
    return paths


def test_every_run_setting_has_a_config_key(tmp_path):
    # every setting a run reads has a config key, so the manifest's [config]
    # section reruns any run: here one with every setting off its default
    schema = sorted(path for path, _ in _KEYS.values())
    assert sorted(_leaf_paths(RunConfig())) == schema
    cfg = RunConfig(
        genotypes="g.tsv", genes="g.bed", relevances="r.tsv", out_dir="o",
        seed=7, phi=5000.0, min_maf=0.1, hwe_alpha=1e-4,
        filtering=FilterConfig(max_rounds=3, fraction=0.3, rank_tol=0.05, rank=20),
        gibbs_iters=300, gibbs_burnin=50, gammas=(0.5, 2.0),
        em=Hyperparameters(kappa=500.0, nu=2.0, lam=0.1, xi0=-5.0, xi1=1.5),
        gibbs=Hyperparameters(kappa=50.0, nu=4.0, lam=0.05, xi0=-2.0, xi1=0.5),
    )
    for path in schema:
        get = lambda c: reduce(getattr, path.split("."), c)
        assert get(cfg) != get(RunConfig()), path
    assert parse_config(_write(tmp_path, "all.cfg", cfg.resolved_text())) == cfg


def test_parse_config_checks_burnin_against_the_files_iters(tmp_path):
    # gibbs.burnin is checked against the file's gibbs.iters, whichever
    # line comes first, and a bad pair names the burn-in's line
    text = "gibbs.burnin = 1500\ngibbs.iters = 2000\n"
    cfg = parse_config(_write(tmp_path, "a.cfg", text))
    assert (cfg.gibbs_iters, cfg.gibbs_burnin) == (2000, 1500)
    path = _write(tmp_path, "b.cfg", "gibbs.burnin = 500\ngibbs.iters = 500\n")
    with pytest.raises(ConfigurationError, match=r"b\.cfg:1: need iters > burnin"):
        parse_config(path)


def test_readme_config_block_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.partition("```ini\n")[2].partition("```")[0]
    cfg = parse_config(_write(tmp_path, "readme.cfg", block))
    lines = [ln.split("#")[0] for ln in block.splitlines()]
    listed = sorted(ln.split("=")[0].strip() for ln in lines if ln.strip())
    schema = cfg.resolved_text().splitlines()
    assert listed == sorted(ln.split(" =")[0] for ln in schema)


def test_parse_config_phi_fit_and_unknown_key(tmp_path):
    cfg = parse_config(_write(tmp_path, "a.cfg", "phi = fit\n"))
    assert cfg.phi is None
    with pytest.raises(ConfigurationError, match="unknown"):
        parse_config(_write(tmp_path, "b.cfg", "em.bogus = 1\n"))
    with pytest.raises(ParseError):
        parse_config(_write(tmp_path, "c.cfg", "no equals sign\n"))


FLOAT_KEYS = ["phi", "min_maf", "hwe_alpha", "rank_tol", "filter.fraction", "gammas",
              *(f"{stage}.{f.name}" for stage in ("em", "gibbs")
                for f in fields(Hyperparameters))]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_parse_config_rejects_non_finite_floats(tmp_path, key, value):
    # a NaN or infinite setting is a bad value, named at its line, before
    # any range check or stage can read it
    path = _write(tmp_path, "a.cfg", f"seed = 1\n{key} = {value}\n")
    with pytest.raises(
        ConfigurationError, match=f"^{re.escape(path)}:2: bad value '{value}' for '{key}'$"
    ):
        parse_config(path)


def test_parse_config_rejects_a_repeated_key(tmp_path):
    # the second line would silently win; both lines are named
    path = _write(tmp_path, "a.cfg", "gibbs.iters = 60\nseed = 2\n\ngibbs.iters=90\n")
    where = re.escape(path)
    with pytest.raises(
        ConfigurationError,
        match=f"^{where}:4: key 'gibbs.iters' already set at {where}:1$",
    ):
        parse_config(path)


def test_substream_determinism():
    a = substream(3, "gibbs.chain0").integers(2**31, size=5)
    b = substream(3, "gibbs.chain0").integers(2**31, size=5)
    c = substream(3, "sim").integers(2**31, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_atomic_write(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write(path, "hello\n")
    assert open(path).read() == "hello\n"
    assert not os.path.exists(path + ".tmp")
    atomic_write_bytes(path, b"\x00\xff")
    assert open(path, "rb").read() == b"\x00\xff"
    assert not os.path.exists(path + ".tmp")


def _archive_cases():
    rng = np.random.default_rng(8)
    beta = rng.standard_normal((6, 5))
    return {
        # a chain that keeps one draw
        "one_draw": {"theta": np.array([[1, 0, 1]], dtype=np.int8),
                     "beta": rng.standard_normal((1, 3)),
                     "sigma2": rng.random(1)},
        "chain": {"theta": rng.integers(0, 2, (25, 9)).astype(np.int8),
                  "beta": rng.standard_normal((25, 9)),
                  "sigma2": rng.random(25)},
        "empty_and_bool": {"empty": np.empty((0, 4)), "bool": beta > 0},
        # not C-contiguous: written in C order, as write_array writes a copy
        "layouts": {"fortran": np.asfortranarray(beta), "strided": beta[::2, ::3]},
    }


@pytest.mark.parametrize("case", sorted(_archive_cases()))
def test_streamed_draw_archive_matches_the_in_memory_one(tmp_path, case):
    arrays = _archive_cases()[case]
    path = tmp_path / "draws.npz"
    atomic_write_bytes(str(path), lambda fh: write_npz(fh, arrays))
    copies = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
    assert path.read_bytes() == npz_bytes(copies)
    assert os.listdir(tmp_path) == ["draws.npz"]
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == list(arrays)
        for name, want in arrays.items():
            got = npz[name]
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name


@pytest.mark.parametrize("size", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7])
def test_checksum_in_chunks_matches_whole_file_sha256(tmp_path, size):
    path = tmp_path / "artifact"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert _checksum(str(path)) == hashlib.sha256(path.read_bytes()).hexdigest()


def _gibbs_stage(tmp_path, monkeypatch, chain):
    """A run context whose gibbs stage writes ``chain``'s draws to tmp_path."""
    monkeypatch.setattr(pipeline, "sample_survivors", lambda *args: chain)
    run = PipelineResult(RunConfig(out_dir=str(tmp_path)))
    run.dataset, run.trace = SimpleNamespace(y=None), SimpleNamespace(design=None)
    return run


def _big_chain(retained=1000, p1=3000):
    theta = np.zeros((retained, p1), dtype=np.int8)
    beta = np.random.default_rng(1).standard_normal((retained, p1))
    return ChainSummary(theta.mean(axis=0), retained, theta, beta, np.ones(retained))


def test_gibbs_stage_streams_the_draw_archive(tmp_path, monkeypatch):
    # beta's draws are 24 MB; written member by member from the arrays' own
    # buffers, the archive never holds a copy of them (npz_bytes holds an
    # npy buffer, a zip buffer and its copy)
    chain = _big_chain()
    run = _gibbs_stage(tmp_path, monkeypatch, chain)
    peak = peak_bytes(lambda: pipeline._gibbs(run))
    size = chain.beta_draws.nbytes
    assert size == 24_000_000
    assert peak < size
    want = npz_bytes({"theta": chain.theta_draws, "beta": chain.beta_draws,
                      "sigma2": chain.sigma2_draws})
    assert (tmp_path / "gibbs_draws.npz").read_bytes() == want
    assert run.outputs == [str(tmp_path / "gibbs_draws.npz")]


def test_failed_draw_archive_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    # the disk fills up at the first byte: the temporary file is removed and
    # the previous run's archive is left as it was
    class FullDisk(io.FileIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    old = tmp_path / "gibbs_draws.npz"
    old.write_bytes(b"previous run")
    run = _gibbs_stage(tmp_path, monkeypatch, _big_chain(retained=4, p1=5))
    monkeypatch.setattr(pipeline, "open", lambda path, mode: FullDisk(path, "w"),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        pipeline._gibbs(run)
    assert os.listdir(tmp_path) == ["gibbs_draws.npz"]
    assert old.read_bytes() == b"previous run"


def _planted_files(tmp_path, seed=5, n=120, p=20, planted=8):
    rng = np.random.default_rng(seed)
    positions = np.cumsum(rng.integers(800, 2500, size=p))
    mafs = rng.uniform(0.2, 0.5, size=p)
    G = rng.binomial(2, mafs, size=(n, p))
    y = (G[:, planted] >= 1).astype(int)
    flips = rng.random(n) < 0.08
    y[flips] = 1 - y[flips]
    header = "#pheno\t" + "\t".join(
        f"snp{j}:1:{positions[j]}" for j in range(p)
    )
    rows = [header] + [
        str(y[i]) + "\t" + "\t".join(str(g) for g in G[i]) for i in range(n)
    ]
    geno = _write(tmp_path, "geno.tsv", "\n".join(rows) + "\n")
    start = max(int(positions[planted]) - 3000, 0)
    genes = _write(
        tmp_path,
        "genes.bed",
        f"1\t{start}\t{int(positions[planted]) + 3000}\tgeneA\n",
    )
    return geno, genes, f"snp{planted}"


def test_run_pipeline_artifacts(tmp_path):
    geno, genes, planted_id = _planted_files(tmp_path)
    out = str(tmp_path / "out")
    cfg = RunConfig(
        genotypes=geno,
        genes=genes,
        out_dir=out,
        seed=11,
        phi=5000.0,
        filtering=FilterConfig(max_rounds=2),
        gibbs_iters=120,
        gibbs_burnin=30,
        gammas=(0.5, 1.0, 4.0),
    )
    result = run_pipeline(cfg)
    for name in (
        "filters.tsv",
        "boosts.tsv",
        "em_trace.tsv",
        "gibbs_draws.npz",
        "report.tsv",
        "bfdr.tsv",
        "selection_gamma1.tsv",
        "manifest.txt",
    ):
        assert os.path.exists(os.path.join(out, name)), name
    assert not os.path.exists(os.path.join(out, "FAILED"))
    assert result.chain.pi_hat is not None
    man = open(os.path.join(out, "manifest.txt")).read()
    assert "report.tsv = " in man
    assert "seed = 11" in man
    assert "\ngibbs_draws.npz = " in man
    assert "gibbs_draws.tsv" not in man
    assert not os.path.exists(os.path.join(out, "gibbs_draws.tsv"))
    _assert_selections_match_bfdr(out)


def _assert_selections_match_bfdr(out):
    """bfdr.tsv's curve (gammas 0.5, 1 and 4), the per-gamma selection files
    and report.tsv's gamma = 1 column agree; return the printed BFDRs."""
    with open(os.path.join(out, "bfdr.tsv")) as fh:
        curve = [ln.split("\t") for ln in fh.read().splitlines()[1:]]
    assert [row[0] for row in curve] == ["0.5", "1", "4"]
    for gamma, _, metric, count in curve:
        with open(os.path.join(out, f"selection_gamma{gamma}.tsv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == f"# gamma={gamma}\tbfdr={metric}"
        assert sum(ln.endswith("\t1") for ln in lines[2:]) == int(count)
        assert (metric == "NA") == (count == "0")
    with open(os.path.join(out, "report.tsv")) as fh:
        selected1 = sum(ln.endswith("\t1") for ln in fh.read().splitlines()[1:])
    assert selected1 == int(curve[1][3])
    return [row[2] for row in curve]


def test_run_pipeline_empty_selection_prints_na(tmp_path):
    # a phenotype drawn apart from the genotypes: pi_hat stays below 2/3, so
    # gamma = 0.5 selects nothing and its BFDR prints as NA in both files
    geno, genes, _ = _planted_files(tmp_path)
    rows = Path(geno).read_text().splitlines()
    rng = np.random.default_rng(0)
    rows = rows[:1] + [f"{rng.integers(2)}{row[1:]}" for row in rows[1:]]
    Path(geno).write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "out")
    cfg = RunConfig(
        genotypes=geno,
        genes=genes,
        out_dir=out,
        seed=11,
        phi=5000.0,
        filtering=FilterConfig(max_rounds=2),
        gibbs_iters=120,
        gibbs_burnin=30,
        gammas=(0.5, 1.0, 4.0),
    )
    run_pipeline(cfg)
    metrics = _assert_selections_match_bfdr(out)
    assert metrics[0] == "NA" and metrics[2] != "NA", metrics


def test_gibbs_draws_npz_holds_the_chain(tmp_path):
    geno, genes, _ = _planted_files(tmp_path)
    chains, paths = [], []
    for run in ("run1", "run2"):
        cfg = RunConfig(genotypes=geno, genes=genes, out_dir=str(tmp_path / run),
                        seed=3, phi=5000.0, gibbs_iters=40, gibbs_burnin=15)
        chains.append(run_pipeline(cfg).chain)
        paths.append(tmp_path / run / "gibbs_draws.npz")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    chain = chains[0]
    assert paths[0].read_bytes() == npz_bytes({
        "theta": chain.theta_draws,
        "beta": chain.beta_draws,
        "sigma2": chain.sigma2_draws,
    })
    with np.load(paths[0], allow_pickle=False) as npz:
        assert sorted(npz.files) == ["beta", "sigma2", "theta"]
        for key, want in (("theta", chain.theta_draws),
                          ("beta", chain.beta_draws),
                          ("sigma2", chain.sigma2_draws)):
            got = npz[key]
            assert got.dtype == want.dtype and got.shape == want.shape, key
            assert got.tobytes() == want.tobytes(), key
    assert chain.theta_draws.dtype == np.int8
    assert chain.theta_draws.shape == (25, chain.pi_hat.size)
    assert chain.sigma2_draws.shape == (25,)


def test_run_pipeline_skips_em_stage(tmp_path):
    geno, genes, _ = _planted_files(tmp_path)
    cfg = RunConfig(
        genotypes=geno,
        genes=genes,
        out_dir=str(tmp_path / "out0"),
        seed=1,
        phi=5000.0,
        filtering=FilterConfig(max_rounds=0),
        gibbs_iters=60,
        gibbs_burnin=10,
    )
    result = run_pipeline(cfg)
    # no EM filtering: every post-filter marker reaches the sampler
    assert result.trace.final_survivors.size == result.dataset.p


def test_gibbs_stage_frees_the_survivors_design(tmp_path):
    # nothing after the chain reads the design: once the gibbs stage has
    # sampled, no reference to it is left for the report and the manifest
    refs = []

    def keep_ref(run):
        refs.append(weakref.ref(run.trace.design))

    def assert_freed(run):
        assert refs and refs[0]() is None

    geno, genes, _ = _planted_files(tmp_path)
    cfg = RunConfig(genotypes=geno, genes=genes, out_dir=str(tmp_path / "out"),
                    seed=3, phi=5000.0, gibbs_iters=40, gibbs_burnin=15)
    names = [name for name, _ in pipeline.STAGES]
    at = names.index("gibbs")
    stages = (pipeline.STAGES[:at] + (("keep", keep_ref),) + pipeline.STAGES[at:at + 1]
              + (("freed", assert_freed),) + pipeline.STAGES[at + 1:])
    run = pipeline.run_stages(cfg, stages)
    assert run.trace.design is None and run.chain is not None
    assert (tmp_path / "out" / "report.tsv").exists()


def test_run_pipeline_failure_marker(tmp_path):
    cfg = RunConfig(
        genotypes=str(tmp_path / "missing.tsv"),
        genes=str(tmp_path / "missing.bed"),
        out_dir=str(tmp_path / "outfail"),
    )
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "load"
    marker = os.path.join(str(tmp_path / "outfail"), "FAILED")
    assert os.path.exists(marker)
    assert "stage = load" in open(marker).read()


def _rerun_config(tmp_path):
    geno, genes, _ = _planted_files(tmp_path)
    return RunConfig(
        genotypes=geno,
        genes=genes,
        out_dir=str(tmp_path / "out"),
        seed=1,
        phi=5000.0,
        filtering=FilterConfig(max_rounds=2),
        gibbs_iters=60,
        gibbs_burnin=10,
    )


def test_run_pipeline_prefix_rerun_replaces_report(tmp_path):
    cfg = _rerun_config(tmp_path)
    run_pipeline(cfg)
    out = tmp_path / "out"
    (out / "notes.txt").write_text("not written by a run\n")
    run_pipeline(cfg, "boosts")
    assert sorted(os.listdir(out)) == [
        "boosts.tsv", "filters.tsv", "manifest.txt", "notes.txt"
    ]


def test_run_pipeline_failed_rerun_replaces_report(tmp_path, monkeypatch):
    cfg = _rerun_config(tmp_path)
    run_pipeline(cfg)
    out = tmp_path / "out"
    (out / "notes.txt").write_text("not written by a run\n")

    def failing_chain(*args, **kwargs):
        raise NumericalError("woodbury core: non-finite solution")

    # RunConfig rejects a bad burn-in itself, so the chain fails instead
    monkeypatch.setattr("spatialboost.pipeline.gibbs_run", failing_chain)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg)
    monkeypatch.undo()
    assert exc.value.stage == "gibbs"
    written = ["filters.tsv", "boosts.tsv", "em_trace.tsv"]
    assert sorted(os.listdir(out)) == sorted(written + ["FAILED", "notes.txt"])
    assert (out / "FAILED").read_text().endswith(
        "\n[outputs]\n" + "".join(f"{name}\n" for name in written)
    )
    # the next run removes the failed run's files too
    run_pipeline(cfg, "filter")
    assert sorted(os.listdir(out)) == ["filters.tsv", "manifest.txt", "notes.txt"]


def test_report_etheta_em_follows_the_last_rounds_columns(tmp_path):
    # one round that removes markers: the survivors are a subset of the
    # columns whose <theta> the last round's state holds
    from types import SimpleNamespace

    from spatialboost.em import em_filter_pipeline
    from spatialboost.pipeline import PipelineResult, _report
    from tests.test_em import _separable_instance

    X, y, boosts, hyper = _separable_instance()
    config = FilterConfig(max_rounds=1, rank=40)
    trace = em_filter_pipeline(X, y, boosts, hyper, config)
    last = trace.rounds[-1]
    assert trace.stop_reason == "rounds"
    assert trace.final_survivors.size < last.retained.size
    run = PipelineResult(
        config=RunConfig(out_dir=str(tmp_path), filtering=config),
        dataset=Dataset(y=y, G=X, snps=[SnpLocus(f"rs{j}", 100 * j)
                                        for j in range(X.shape[1])]),
        boosts=boosts,
        trace=trace,
        chain=SimpleNamespace(pi_hat=np.linspace(0.0, 1.0, trace.final_survivors.size + 1)),
    )
    _report(run)
    rows = (tmp_path / "report.tsv").read_text().splitlines()[1:]
    etheta = dict(zip(last.retained.tolist(), last.state.etheta[1:]))
    survivors = set(trace.final_survivors.tolist())
    for j, row in enumerate(rows):
        cell = row.split("\t")[4]
        assert cell == (f"{etheta[j]:.10g}" if j in survivors else "NA"), j


def _load_from_pipe(tmp_path, text):
    """load_genotypes on ``text`` written into a FIFO by another thread."""
    fifo = tmp_path / "pipe.tsv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_text(text), daemon=True)
    writer.start()
    try:
        return load_genotypes(str(fifo))
    finally:
        writer.join(timeout=30)
        fifo.unlink()
        assert not writer.is_alive()


def test_load_genotypes_reads_a_pipe(tmp_path):
    # a pipe has no size to bound the rows by, so the matrix grows as the
    # blocks arrive: four decoding blocks with missing cells and a blank
    # line load as the same file read from disk does
    text = _genotype_text(np.random.default_rng(5), 3 * _BLOCK_300 + 2, 300, 0.05)
    lines = text.split("\n")
    text = "\n".join(lines[:3] + [""] + lines[3:])
    path = _write(tmp_path, "g.tsv", text)
    got = _load_from_pipe(tmp_path, text)
    _assert_same_dataset(got, load_genotypes(path))
    _assert_same_dataset(got, per_cell_load_genotypes(path))
    # a bad cell in the last block, read after the buffers have grown,
    # names its file:line, counting the blank line
    lines = text.split("\n")
    bad = len(lines) - 3
    lines[bad] = lines[bad][:-1] + "7"
    text = "\n".join(lines)
    with pytest.raises(ParseError) as err:
        _load_from_pipe(tmp_path, text)
    where = f":{bad + 1}: genotype '7' not in "
    assert str(err.value).startswith(f"{tmp_path / 'pipe.tsv'}{where}"), err.value
    path = _write(tmp_path, "bad.tsv", text)
    with pytest.raises(ParseError, match=re.escape(f"{path}{where}")):
        load_genotypes(path)


SCAN_HEADER = "kappa\tgamma\tthreshold\tembfdr\tretained"


def _scan_run(tmp_path, seed=13):
    """A run after the boosts stage: 30 individuals, 6 markers."""
    rng = np.random.default_rng(seed)
    n, p = 30, 6
    ds = Dataset(
        y=rng.integers(0, 2, n).astype(float),
        G=rng.integers(0, 3, (n, p)).astype(np.int8),
        snps=[SnpLocus(f"rs{j}", 100 * j) for j in range(p)],
    )
    hyper = Hyperparameters(kappa=100.0, nu=3.0, lam=0.02, xi0=-2.0, xi1=1.0)
    config = RunConfig(out_dir=str(tmp_path), em=hyper)
    return PipelineResult(config, dataset=ds, boosts=rng.uniform(0, 1, p))


def _scan_rows(path):
    header, *rows = Path(path).read_text().splitlines()
    assert header == SCAN_HEADER
    return [row.split("\t") for row in rows]


def test_kappa_scan_single_point_composes(tmp_path):
    # one kappa's rows are the EMBFDR curve of one em_fit at that kappa on
    # the post-QC design, factored as the EM filter factors it
    run = _scan_run(tmp_path)
    path = scan_kappas(run, [50.0])
    assert run.outputs == [path] and path == str(tmp_path / "kappa_scan.tsv")
    cfg, ds = run.config, run.dataset
    design = cfg.filtering.factor(ds.G, np.arange(ds.p))
    state = em_fit(design, ds.y, run.boosts, replace(cfg.em, kappa=50.0))
    direct = embfdr_curve(state.etheta[1:], DEFAULT_GAMMA_GRID)
    assert _scan_rows(path) == [["50", *pt.tsv().split("\t")] for pt in direct]


def test_kappa_scan_curves_finite_and_monotone(tmp_path):
    rows = _scan_rows(scan_kappas(_scan_run(tmp_path), [10.0, 100.0, 1000.0]))
    for kappa in ("10", "100", "1000"):
        pts = [row[1:] for row in rows if row[0] == kappa]
        assert len(pts) == len(DEFAULT_GAMMA_GRID)
        retained = [int(pt[3]) for pt in pts]
        assert np.all(np.diff(retained) >= 0)
        for pt in pts:
            assert pt[2] == "NA" or np.isfinite(float(pt[2]))
