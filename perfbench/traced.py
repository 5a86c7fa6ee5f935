"""Run the spatialboost CLI in-process with spans around its public functions.

    PYTHONPATH=src python3 perfbench/traced.py SPANS.json -- --config run.cfg report

Nothing under ``src/`` is edited: after import, each traced function is
replaced by a timing wrapper in every spatialboost module that bound it
(including ``from ... import`` copies in ``cli``, ``pipeline``, ``em``,
``mcmc`` and ``sim``), and ``WoodburySolver``'s methods are wrapped on the
class so every call site is covered. Per-draw ``sample_pg`` is never wrapped;
the vector call around it is. Spans (name, start, end, parent id) and counts
derived from arguments and return values are kept in memory and written to
SPANS.json when the command ends. ``layer_metrics`` turns that file into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# module -> traced public functions defined there
TRACED = {
    "cli": ["main"],
    "pipeline": [
        "parse_config", "load_genotypes", "load_genes", "load_relevances",
        "maf_filter", "hwe_filter", "atomic_write", "run_pipeline",
    ],
    "genome": [
        "build_blocks", "compute_boosts", "partition_regions",
        "fit_phi_by_region", "fit_phi",
    ],
    "linalg": ["select_rank", "truncate_design", "weighted_cholesky"],
    "em": ["em_filter_pipeline", "em_fit"],
    "mcmc": [
        "gibbs_run", "gibbs_cycle", "sample_sigma2", "sample_theta",
        "sample_pg_vector", "sample_beta",
    ],
    "inference": ["centroid"],
}
WOODBURY_METHODS = ("__init__", "solve", "solve_core")


def _on_load_genotypes(c, args, kw, out):
    c["pipeline.genotype_cells"] += out.n * out.p


def _on_atomic_write(c, args, kw, out):
    text = args[1] if len(args) > 1 else kw["text"]
    c["pipeline.bytes_written"] += len(text.encode())


def _on_compute_boosts(c, args, kw, out):
    snps, blocks = args[0], args[1]
    per_chrom = Counter(b.chromosome for b in blocks)
    c["genome.snp_block_pairs"] += sum(per_chrom[s.chromosome] for s in snps)


def _on_fit_phi(c, args, kw, out):
    m = len(args[1])
    c["genome.fit_phi_pairs"] += m * (m - 1) // 2


def _on_partition_regions(c, args, kw, out):
    c["genome.regions"] += len(out.ranges)


def _on_truncate_design(c, args, kw, out):
    c["linalg.rank"] = out.rank  # the last design factored is the one sampled


def _on_weighted_cholesky(c, args, kw, out):
    d = args[0]
    n, l, p1 = d.n, d.rank, d.p1
    # Gram B'B, Cholesky, then C_w V'
    c["linalg.weighted_cholesky_flop"] += 2 * n * l * l + l**3 / 3 + 2 * l * l * p1


def _on_em_fit(c, args, kw, out):
    c["em.fits"] += 1
    c["em.iterations"] += out.iterations
    c["em.converged"] += int(out.converged)


def _on_em_filter_pipeline(c, args, kw, out):
    c["em.rounds"] += len(out.rounds)
    c["em.initial"] += out.initial.size
    c["em.survivors"] += out.final_survivors.size


def _on_sample_pg_vector(c, args, kw, out):
    c["mcmc.pg_draws"] += len(out)


def _on_gibbs_run(c, args, kw, out):
    c["mcmc.draws_retained"] += out.draws_retained


HOOKS = {
    "pipeline.load_genotypes": _on_load_genotypes,
    "pipeline.atomic_write": _on_atomic_write,
    "genome.compute_boosts": _on_compute_boosts,
    "genome.fit_phi": _on_fit_phi,
    "genome.partition_regions": _on_partition_regions,
    "linalg.truncate_design": _on_truncate_design,
    "linalg.weighted_cholesky": _on_weighted_cholesky,
    "em.em_fit": _on_em_fit,
    "em.em_filter_pipeline": _on_em_filter_pipeline,
    "mcmc.sample_pg_vector": _on_sample_pg_vector,
    "mcmc.gibbs_run": _on_gibbs_run,
}


class Tracer:
    """In-memory span recorder: one list of [name, parent, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = {
            m: importlib.import_module(f"spatialboost.{m}")
            for m in ("cli", "pipeline", "genome", "linalg", "em", "mcmc",
                      "inference", "sim")
        }
        for mod_name, names in TRACED.items():
            for fname in names:
                orig = getattr(modules[mod_name], fname)
                wrapped = self.wrap(f"{mod_name}.{fname}", orig)
                for mod in modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)

        report = modules["inference"].SelectionReport
        report.build = classmethod(
            self.wrap("inference.SelectionReport.build", report.build.__func__)
        )
        solver = modules["linalg"].WoodburySolver
        for meth in WOODBURY_METHODS:
            setattr(solver, meth,
                    self.wrap(f"linalg.WoodburySolver.{meth}",
                              getattr(solver, meth)))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _totals(spans, prefix: str | tuple[str, ...]):
    """Wall time of spans whose name starts with ``prefix``, counting nested
    matches once, and the duration of the first matching span."""
    matched = [s[0].startswith(prefix) for s in spans]
    total = first = 0.0
    for k, s in enumerate(spans):
        if not matched[k]:
            continue
        if first == 0.0:
            first = s[3] - s[2]
        parent = s[1]
        if parent is None or not matched[parent]:
            total += s[3] - s[2]
    return total, first


def self_times(spans) -> Counter:
    """Per-name self time: a span's duration minus its children's."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[3] - s[2]
    out: Counter = Counter()
    for s, t in zip(spans, own):
        out[s[0]] += t
    return out


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics from one traced run's SPANS.json."""
    with open(path) as fh:
        data = json.load(fh)
    spans, c = data["spans"], Counter(data["counts"])
    own = self_times(spans)

    def tot(*names: str) -> float:
        return _totals(spans, names)[0]

    calls = Counter(s[0] for s in spans)
    svd_s, svd_first = _totals(
        spans, ("linalg.select_rank", "linalg.truncate_design")
    )
    pg_s = tot("mcmc.sample_pg_vector")
    sweeps = calls["mcmc.gibbs_cycle"]
    fits = c["em.fits"]
    return {
        "cli.main_s": tot("cli.main"),
        "pipeline.load_genotypes_s": tot("pipeline.load_genotypes"),
        "pipeline.genotype_cells": c["pipeline.genotype_cells"],
        "pipeline.qc_s": tot("pipeline.maf_filter", "pipeline.hwe_filter"),
        "pipeline.atomic_write_s": tot("pipeline.atomic_write"),
        "pipeline.bytes_written": c["pipeline.bytes_written"],
        "genome.compute_boosts_s": tot("genome.compute_boosts"),
        "genome.snp_block_pairs": c["genome.snp_block_pairs"],
        "genome.fit_phi_s": tot("genome.fit_phi"),
        "genome.fit_phi_pairs": c["genome.fit_phi_pairs"],
        "genome.regions": c["genome.regions"],
        "linalg.svd_s": svd_s,
        "linalg.svd_calls": calls["linalg.select_rank"]
        + calls["linalg.truncate_design"],
        "linalg.svd_first_call_s": svd_first,
        "linalg.rank": c["linalg.rank"],
        "linalg.weighted_cholesky_s": tot("linalg.weighted_cholesky"),
        "linalg.weighted_cholesky_calls": calls["linalg.weighted_cholesky"],
        "linalg.weighted_cholesky_gflop": c["linalg.weighted_cholesky_flop"] / 1e9,
        "linalg.woodbury_s": tot("linalg.WoodburySolver"),
        "mcmc.sample_beta_self_s": own["mcmc.sample_beta"],
        "mcmc.sample_pg_vector_s": pg_s,
        "mcmc.pg_draws": c["mcmc.pg_draws"],
        "mcmc.pg_us_per_draw": 1e6 * pg_s / c["mcmc.pg_draws"]
        if c["mcmc.pg_draws"] else 0.0,
        "mcmc.gibbs_run_self_s": own["mcmc.gibbs_run"],
        "mcmc.sweep_ms": 1e3 * tot("mcmc.gibbs_cycle") / sweeps if sweeps else 0.0,
        "mcmc.theta_sigma2_s": tot("mcmc.sample_sigma2", "mcmc.sample_theta"),
        "mcmc.draws_retained": c["mcmc.draws_retained"],
        "em.em_filter_pipeline_s": tot("em.em_filter_pipeline"),
        "em.em_fit_s": tot("em.em_fit"),
        "em.rounds": c["em.rounds"],
        "em.iterations": c["em.iterations"],
        "em.converged_ratio": c["em.converged"] / fits if fits else 0.0,
        "em.survivor_ratio": c["em.survivors"] / c["em.initial"]
        if c["em.initial"] else 0.0,
        "inference.selection_s": tot("inference."),
    }


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.json -- CLI-ARGS...")
    tracer = Tracer()
    tracer.install()
    from spatialboost import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
