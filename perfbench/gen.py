"""Input generator for the benchmark workloads.

Writes a genotype TSV, a genes BED, a relevances file, a truth file and a
run configuration for one workload. It deliberately does not use
``spatialboost.sim``: a change to the simulator must never change what a
workload runs. The same (workload, seed) pair always gives byte-identical
files.

Genotypes follow a two-haplotype latent Gaussian model: along each
chromosome the latent value is an AR(1) chain whose correlation decays with
base-pair distance, thresholded at the SNP's allele frequency. SNPs sit in
regions separated by gaps wider than the program's 30 kb region split, and
genes (which overlap) lie inside regions. Causal SNPs sit inside genes that
get high relevance scores, so boosts carry real signal.

    python3 perfbench/gen.py --workload gwas_wide --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os
import zlib
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


@dataclass(frozen=True)
class Workload:
    n: int  # individuals
    p: int  # SNPs before QC
    chromosomes: int
    region_snps: int  # SNPs per region
    genes_per_region: int
    causal: int  # SNPs with a non-zero effect
    missing: float  # share of genotype cells written as '.'
    config: tuple[tuple[str, str], ...]  # extra config lines


# Sizes are chosen so that one CLI call takes a few seconds on a 2-CPU host,
# which lets a timed run collect several calls; see perfbench/README.md.
WORKLOADS: dict[str, Workload] = {
    # p >> n GWAS: full-rank Woodbury algebra in sample_beta, fit_phi over
    # many regions, two SVDs per design, the O(iters p) draw log.
    "gwas_wide": Workload(
        n=250, p=1200, chromosomes=3, region_snps=250,
        genes_per_region=8, causal=30, missing=0.005,
        config=(("rank_tol", "1e-6"), ("gibbs.iters", "60")),
    ),
    # candidate-gene panel on a large cohort: the scalar PG sampler
    # dominates; fit_phi and select_rank do not run.
    "panel_tall": Workload(
        n=2000, p=120, chromosomes=1, region_snps=120,
        genes_per_region=6, causal=6, missing=0.0,
        config=(("phi", "20000"), ("rank", "121"), ("gibbs.iters", "100")),
    ),
}

MIN_GAP = 40_000  # > the program's 30 kb region split
PROGRAM_SEED = 11  # the CLI's own seed, fixed for every workload
LD_RANGE = 20_000.0  # bp scale of latent correlation decay
EFFECT = (0.5, 1.0)  # range of |beta| per allele for causal SNPs


def _positions(w: Workload, rng: np.random.Generator):
    """Per-SNP chromosome and position, plus region spans."""
    chrom, pos = [], []
    spans = []  # (chrom, start, end)
    per_chrom = np.full(w.chromosomes, w.p // w.chromosomes)
    per_chrom[: w.p % w.chromosomes] += 1
    for c, m in enumerate(per_chrom, start=1):
        at = 10_000
        for lo in range(0, m, w.region_snps):
            k = min(w.region_snps, m - lo)
            steps = rng.integers(500, 2501, size=k)
            steps[0] = 0
            ps = at + np.cumsum(steps)
            spans.append((str(c), int(ps[0]), int(ps[-1])))
            chrom += [str(c)] * k
            pos += ps.tolist()
            at = int(ps[-1]) + int(rng.integers(MIN_GAP, 2 * MIN_GAP))
    return chrom, np.array(pos, dtype=np.int64), spans


def _genes(w: Workload, spans, rng: np.random.Generator):
    genes = []  # (chrom, start, end, id)
    for r, (c, lo, hi) in enumerate(spans):
        for k in range(w.genes_per_region):
            start = int(rng.integers(lo, max(hi - 2_000, lo + 1)))
            end = min(start + int(rng.integers(5_000, 60_001)), hi)
            if end <= start:
                end = start + 1
            genes.append((c, start, end, f"G{r:04d}_{k}"))
    return genes


def _genotypes(w: Workload, chrom, pos, rng: np.random.Generator):
    """n x p dosages in {0,1,2} from two latent AR(1) haplotypes."""
    freq = rng.uniform(0.12, 0.5, size=w.p)
    cut = np.array([NormalDist().inv_cdf(f) for f in freq])
    G = np.empty((w.n, w.p), dtype=np.int8)
    z = rng.standard_normal(2 * w.n)
    for j in range(w.p):
        if j and chrom[j] == chrom[j - 1]:
            r = np.exp(-(pos[j] - pos[j - 1]) / LD_RANGE)
            z = r * z + np.sqrt(1.0 - r * r) * rng.standard_normal(2 * w.n)
        else:
            z = rng.standard_normal(2 * w.n)
        h = (z < cut[j]).astype(np.int8)
        G[:, j] = h[: w.n] + h[w.n :]
    return G, freq


def generate(name: str, seed: int, out_dir: str) -> dict[str, str]:
    """Write the workload's inputs under ``out_dir``; return their paths."""
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    chrom, pos, spans = _positions(w, rng)
    genes = _genes(w, spans, rng)
    G, freq = _genotypes(w, chrom, pos, rng)

    # causal SNPs: each inside a distinct gene, those genes made relevant
    order = rng.permutation(len(genes))
    causal, relevant = [], set()
    for gi in order:
        c, start, end, _ = genes[gi]
        inside = np.flatnonzero(
            (np.array(chrom) == c) & (pos >= start) & (pos <= end)
        )
        inside = [j for j in inside if j not in causal]
        if not inside:
            continue
        causal.append(int(rng.choice(inside)))
        relevant.add(int(gi))
        if len(causal) == w.causal:
            break
    beta = np.zeros(w.p)
    beta[causal] = rng.choice([-1.0, 1.0], size=len(causal)) * rng.uniform(
        *EFFECT, size=len(causal)
    )
    eta = (G - 2.0 * freq) @ beta
    y = (rng.random(w.n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int8)
    scores = np.where(
        np.isin(np.arange(len(genes)), list(relevant)),
        rng.uniform(0.7, 1.0, size=len(genes)),
        rng.uniform(0.0, 0.4, size=len(genes)),
    )
    missing = rng.random(G.shape) < w.missing

    os.makedirs(out_dir, exist_ok=True)
    ids = [f"rs{j + 1:06d}" for j in range(w.p)]
    paths = {
        k: os.path.join(out_dir, f)
        for k, f in (
            ("genotypes", "genotypes.tsv"),
            ("genes", "genes.bed"),
            ("relevances", "relevances.tsv"),
            ("truth", "truth.tsv"),
            ("config", "run.cfg"),
        )
    }

    # every cell is one character, so rows are built as a byte matrix
    cells = np.frombuffer(b"012", dtype=np.uint8)[G]
    cells[missing] = ord(".")
    body = np.empty((w.n, 2 * w.p + 2), dtype=np.uint8)
    body[:, 0] = ord("0") + y
    body[:, 1:-1:2] = ord("\t")
    body[:, 2:-1:2] = cells
    body[:, -1] = ord("\n")
    header = "#pheno\t" + "\t".join(
        f"{i}:{c}:{p}" for i, c, p in zip(ids, chrom, pos.tolist())
    )
    with open(paths["genotypes"], "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(body.tobytes())

    with open(paths["genes"], "w") as fh:
        fh.writelines(f"{c}\t{s}\t{e}\t{g}\n" for c, s, e, g in genes)
    with open(paths["relevances"], "w") as fh:
        fh.writelines(f"{g[3]}\t{s:.6f}\n" for g, s in zip(genes, scores))
    with open(paths["truth"], "w") as fh:
        fh.write("snp\ttheta\tbeta\n")
        fh.writelines(
            f"{i}\t{int(b != 0)}\t{b:.6f}\n" for i, b in zip(ids, beta)
        )
    lines = [
        "genotypes = genotypes.tsv",
        "genes = genes.bed",
        "relevances = relevances.tsv",
        f"seed = {PROGRAM_SEED}",
        "gammas = 0.5,1,4",
        *(f"{k} = {v}" for k, v in w.config),
    ]
    with open(paths["config"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return paths


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    for path in generate(args.workload, args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
