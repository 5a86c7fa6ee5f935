"""Command-line surface: batch subcommands over the library modules."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from spatialboost.errors import (
    ConfigurationError,
    NumericalError,
    ParseError,
    PipelineError,
)
from spatialboost.pipeline import (
    RunConfig,
    parse_config,
    run_pipeline,
    run_stages,
    scan_kappas,
    substream,
    write_phi_fits,
)


def _load_config(args) -> RunConfig:
    """The config file's settings (defaults without one), with the --seed
    and --out-dir overrides; ``replace`` validates the result."""
    cfg = parse_config(args.config) if args.config else RunConfig()
    overrides = {"seed": args.seed, "out_dir": args.out_dir}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _float_list(text: str) -> list[float]:
    try:
        return [float(k) for k in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers such as 10,100,1000, got '{text}'"
        ) from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``spatialboost: error:``
    line, exit 2, with no usage block."""

    def error(self, message: str):
        self.exit(2, f"spatialboost: error: {message}\n")


def _command(args) -> str:
    """The subcommand and its own flags with their values, as the manifest
    records them; the global options are in its [config] section."""
    words = [args.command]
    for name, value in vars(args).items():
        if name in ("config", "seed", "out_dir", "command", "func"):
            continue
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool):  # a store_true flag
            words += [flag] if value else []
        elif isinstance(value, list):
            words += [flag, ",".join(map(str, value))]
        else:
            words += [flag, str(value)]
    return " ".join(words)


def cmd_stages(args, until: str, extra=None) -> int:
    """Run the pipeline's stages up to ``until`` (then ``extra``) and print
    the path of the last stage's artifact."""
    result = run_pipeline(_load_config(args), until, extra, _command(args))
    if result.artifact is not None:
        print(result.artifact)
    return 0


def cmd_filter(args) -> int:
    cfg = _load_config(args)
    result = run_pipeline(cfg, "filter", command=_command(args))
    read, after_maf, after_hwe = result.qc_counts
    print(
        f"markers: {read} -> {after_maf} after MAF > {cfg.min_maf}"
        f" -> {after_hwe} after HWE alpha {cfg.hwe_alpha}"
    )
    print(result.artifact)
    return 0


def cmd_kappa_scan(args) -> int:
    em = _load_config(args).em
    for kappa in args.kappas:  # each checked before any stage runs
        try:
            replace(em, kappa=kappa)
        except ConfigurationError as exc:
            raise ConfigurationError(f"--kappas: {exc}") from None
    scan = partial(scan_kappas, kappas=args.kappas)
    return cmd_stages(args, "boosts", ("kappa-scan", scan))


def genotype_rows(y: np.ndarray, G: np.ndarray) -> str:
    """The data lines of a genotype file: each individual's phenotype and
    int8 genotypes as tab-separated digits, one newline-ended line each,
    mapped through a byte table."""
    n, p = G.shape
    digits = np.frombuffer(b"012", dtype=np.uint8)
    cells = np.empty((n, 2 * (p + 1)), dtype=np.uint8)
    cells[:, 0] = digits[np.asarray(y, dtype=np.intp)]
    cells[:, 2::2] = digits[G]
    cells[:, 1::2] = ord("\t")
    cells[:, -1] = ord("\n")
    return cells.tobytes().decode("ascii")


def cmd_simulate(args) -> int:
    # imported here, not at the top: no other command uses the simulator,
    # and its import would add to every command's start-up
    from spatialboost.sim import LD_RHO, SIGMA2, draw_dataset

    args.sigma2 = SIGMA2 if args.sigma2 is None else args.sigma2
    args.ld_rho = LD_RHO if args.ld_rho is None else args.ld_rho

    def write_simulation(run) -> str:
        rng = substream(run.config.seed, "sim")
        snps, genes, _, data = draw_dataset(
            run.config, args.n, args.p, rng, args.sigma2, args.ld_rho
        )
        header = "#pheno\t" + "\t".join(
            f"{s.id}:{s.chromosome}:{s.position}" for s in snps
        )
        genes_txt = "\n".join(
            f"{g.chromosome}\t{g.start}\t{g.end}\t{g.id}" for g in genes
        )
        truth = "\n".join(
            f"{s.id}\t{int(t)}\t{b:.10g}"
            for s, t, b in zip(snps, data.theta, data.beta[1:])
        )
        path = run.emit(
            "simulated_genotypes.tsv",
            header + "\n" + genotype_rows(data.y, data.genotypes),
        )
        run.emit("simulated_genes.bed", genes_txt + "\n")
        run.emit("simulated_truth.tsv", "snp\ttheta\tbeta\n" + truth + "\n")
        return path

    stages = [("simulate", write_simulation)]
    print(run_stages(_load_config(args), stages, _command(args)).artifact)
    return 0


def cmd_study(args) -> int:
    from spatialboost.sim import study_harness

    if args.datasets < 1:
        raise ConfigurationError(f"--datasets must be >= 1, got {args.datasets}")
    cfg = _load_config(args)
    seeds = [cfg.seed + k for k in range(args.datasets)]
    outcome = []

    def write_study(run) -> str:
        outcome.append(
            study_harness(cfg, args.n, args.p, seeds, args.gibbs_ranking)
        )
        return run.emit("study.tsv", outcome[0].to_tsv())

    print(run_stages(cfg, [("study", write_study)], _command(args)).artifact)
    print(
        f"median AUC: spatial-boost {outcome[0].median_auc_sb:.3f}"
        f" vs single-SNP {outcome[0].median_auc_ss:.3f}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="spatialboost",
        description="Gene-proximity Bayesian variable selection for GWAS",
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--seed", type=int, help="root random seed")
    parser.add_argument("--out-dir", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fit-phi", help="fit the range parameter per region").set_defaults(
        func=partial(cmd_stages, until="filter", extra=("fit-phi", write_phi_fits))
    )
    sub.add_parser("filter", help="apply MAF and HWE filters").set_defaults(
        func=cmd_filter
    )
    for name, help_text in (
        ("boosts", "compute per-SNP gene boosts"),
        ("em-filter", "run the EM filtering loop"),
        ("gibbs", "run the Gibbs sampler"),
        ("report", "run the full pipeline"),
    ):
        sub.add_parser(name, help=help_text).set_defaults(
            func=partial(cmd_stages, until=name)
        )

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--n", type=int, default=100)
    p_sim.add_argument("--p", type=int, default=200)
    # None: sim.SIGMA2 and sim.LD_RHO, resolved once the simulator is loaded
    p_sim.add_argument("--sigma2", type=float)
    p_sim.add_argument("--ld-rho", type=float)
    p_sim.set_defaults(func=cmd_simulate)

    p_study = sub.add_parser("study", help="run the simulation study harness")
    p_study.add_argument("--datasets", type=int, default=10)
    p_study.add_argument("--n", type=int, default=100)
    p_study.add_argument("--p", type=int, default=200)
    p_study.add_argument("--gibbs-ranking", action="store_true")
    p_study.set_defaults(func=cmd_study)

    p_scan = sub.add_parser("kappa-scan", help="EMBFDR curves across kappa")
    p_scan.add_argument(
        "--kappas",
        type=_float_list,
        default="10,100,1000",
    )
    p_scan.set_defaults(func=cmd_kappa_scan)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigurationError, ParseError, NumericalError, PipelineError, OSError
    ) as exc:
        print(f"spatialboost: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
