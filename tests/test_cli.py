import hashlib
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import spatialboost
from spatialboost.cli import main
from spatialboost.pipeline import RunConfig, parse_config, run_pipeline


def test_simulate_writes_dataset(tmp_path, capsys):
    out = str(tmp_path / "sim")
    rc = main(
        ["--seed", "3", "--out-dir", out, "simulate", "--n", "30", "--p", "20"]
    )
    assert rc == 0
    for name in (
        "simulated_genotypes.tsv",
        "simulated_genes.bed",
        "simulated_truth.tsv",
    ):
        assert os.path.exists(os.path.join(out, name))
    geno = open(os.path.join(out, "simulated_genotypes.tsv")).read()
    assert geno.startswith("#pheno\t")
    assert len(geno.strip().split("\n")) == 31


def test_simulate_deterministic_with_seed(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        main(["--seed", "9", "--out-dir", out, "simulate", "--n", "20", "--p", "12"])
        outs.append(open(os.path.join(out, "simulated_genotypes.tsv")).read())
    assert outs[0] == outs[1]


def _sim_config(tmp_path, extra=""):
    out = str(tmp_path / "sim")
    main(["--seed", "3", "--out-dir", out, "simulate", "--n", "40", "--p", "16"])
    base = [
        f"genotypes = {out}/simulated_genotypes.tsv",
        f"genes = {out}/simulated_genes.bed",
        "phi = 5000",
        "seed = 7",
        "gibbs.iters = 120",
        "gibbs.burnin = 30",
        "filter.max_rounds = 1",
    ]
    # a key that ``extra`` sets is commented out above it, since a config
    # may set each key once; ``extra`` still starts on line 8
    keys = {ln.partition("=")[0].strip() for ln in extra.splitlines()}
    lines = [f"# {ln}" if ln.partition("=")[0].strip() in keys else ln for ln in base]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n" + extra)
    return str(cfg)


def test_filter_command_reports_counts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the command writes into the default out/
    cfg = _sim_config(tmp_path)
    rc = main(["--config", cfg, "filter"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "markers:" in out and "MAF" in out


def test_boosts_command(tmp_path, capsys):
    cfg = _sim_config(tmp_path)
    out_dir = str(tmp_path / "cli_out")
    rc = main(["--config", cfg, "--out-dir", out_dir, "boosts"])
    assert rc == 0
    path = os.path.join(out_dir, "boosts.tsv")
    assert os.path.exists(path)
    lines = open(path).read().strip().split("\n")
    assert lines[1] == "snp\tboost"
    values = np.array([float(ln.split("\t")[1]) for ln in lines[2:]])
    assert values.max() <= 1.0 + 1e-12


def test_report_command_end_to_end(tmp_path, capsys):
    cfg = _sim_config(tmp_path)
    out_dir = str(tmp_path / "report_out")
    rc = main(["--config", cfg, "--out-dir", out_dir, "report"])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("report.tsv")
    assert os.path.exists(os.path.join(out_dir, "report.tsv"))
    assert os.path.exists(os.path.join(out_dir, "manifest.txt"))


def test_fit_phi_command(tmp_path, capsys):
    cfg = _sim_config(tmp_path)
    out_dir = str(tmp_path / "phi_out")
    rc = main(["--config", cfg, "--out-dir", out_dir, "fit-phi"])
    assert rc == 0
    text = open(os.path.join(out_dir, "phi.tsv")).read()
    assert text.startswith("region_start\tregion_end\tphi")
    assert "# global_phi" in text


def test_cli_import_skips_scipy_stats(tmp_path):
    # no scipy module is loaded by importing the CLI, nor by simulating a
    # dataset and running report on it with phi fitted per region
    sim, cfg = tmp_path / "sim", tmp_path / "run.cfg"
    cfg.write_text(
        f"genotypes = {sim}/simulated_genotypes.tsv\n"
        f"genes = {sim}/simulated_genes.bed\n"
        "gibbs.iters = 40\n"
    )
    code = f"""
import sys
from spatialboost.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(scipy_modules())
main(["--seed", "3", "--out-dir", {str(sim)!r}, "simulate", "--n", "40", "--p", "16"])
rc = main(["--config", {str(cfg)!r}, "--out-dir", {str(tmp_path / "out")!r}, "report"])
print(rc, scipy_modules())
"""
    src = os.path.dirname(os.path.dirname(spatialboost.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"
    boosts = (tmp_path / "out" / "boosts.tsv").read_text()
    assert "source=fit" in boosts.split("\n")[0]


def test_report_does_not_import_sim(tmp_path):
    # the simulation module is loaded by simulate and study only
    sim, cfg = tmp_path / "sim", tmp_path / "run.cfg"
    main(["--seed", "3", "--out-dir", str(sim), "simulate", "--n", "40", "--p", "16"])
    cfg.write_text(
        f"genotypes = {sim}/simulated_genotypes.tsv\n"
        f"genes = {sim}/simulated_genes.bed\n"
        "gibbs.iters = 40\n"
    )
    code = f"""
import sys
from spatialboost.cli import main

rc = main(["--config", {str(cfg)!r}, "--out-dir", {str(tmp_path / "out")!r}, "report"])
print(rc, "spatialboost.sim" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(spatialboost.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip().split("\n")[-1] == "0 False"


def test_benchmark_tracer_runs_report(tmp_path):
    # perfbench/traced.py wraps spatialboost functions by name and reads
    # fields of what they return; a rename it misses fails here, not only
    # in a traced benchmark run
    sim, cfg = tmp_path / "sim", tmp_path / "run.cfg"
    main(["--seed", "3", "--out-dir", str(sim), "simulate", "--n", "40", "--p", "30"])
    cfg.write_text(
        f"genotypes = {sim}/simulated_genotypes.tsv\n"
        f"genes = {sim}/simulated_genes.bed\n"
        "gibbs.iters = 20\n"
    )
    src = os.path.dirname(os.path.dirname(spatialboost.__file__))
    traced = os.path.join(os.path.dirname(src), "perfbench", "traced.py")
    spans = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, traced, str(spans), "--", "--config", str(cfg),
         "--out-dir", str(tmp_path / "out"), "report"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    spec = importlib.util.spec_from_file_location("traced", traced)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    metrics = module.layer_metrics(str(spans))
    for name in ("em.rounds", "linalg.rank", "mcmc.draws_retained"):
        assert metrics[name] > 0, (name, metrics[name])


STAGE_COMMANDS = {
    "filter": "filters.tsv",
    "fit-phi": "phi.tsv",
    "boosts": "boosts.tsv",
    "em-filter": "em_trace.tsv",
    "gibbs": "gibbs_draws.npz",
    "kappa-scan": "kappa_scan.tsv",
    "report": "report.tsv",
}


@pytest.mark.parametrize("command", sorted(STAGE_COMMANDS))
def test_stage_commands_agree_with_report(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    report_dir, cmd_dir = tmp_path / "report_out", tmp_path / "cmd_out"
    # phi unset (fitted) and out_dir only in the config file
    report_cfg = _sim_config(tmp_path, f"phi = fit\nout_dir = {report_dir}\n")
    assert main(["--config", report_cfg, "report"]) == 0
    cfg = tmp_path / "cmd.cfg"
    cfg.write_text(
        open(report_cfg).read().replace(str(report_dir), str(cmd_dir))
    )
    capsys.readouterr()

    assert main(["--config", str(cfg), command]) == 0
    artifact = cmd_dir / STAGE_COMMANDS[command]
    assert capsys.readouterr().out.strip().endswith(str(artifact))
    assert artifact.exists()
    assert not (tmp_path / "out").exists()
    manifest = (cmd_dir / "manifest.txt").read_text()
    assert f"{artifact.name} = " in manifest
    assert not (cmd_dir / "pi_hat.tsv").exists()
    for name in ("boosts.tsv", "em_trace.tsv", "gibbs_draws.npz"):
        if (cmd_dir / name).exists():
            assert (cmd_dir / name).read_bytes() == (report_dir / name).read_bytes()


CLI_ERRORS = [  # (config line, command, message)
    ("em.kappa = abc", "report", "run.cfg:8: bad value 'abc' for 'em.kappa'"),
    ("genotypes = missing.tsv", "report", "No such file"),
    ("em.bogus = 1", "report", "run.cfg:8: unknown config key 'em.bogus'"),
    ("em.kappa = 0.5", "report", "run.cfg:8: kappa must be > 1, got 0.5"),
    ("filter.fraction = 1.5", "report",
     "run.cfg:8: fraction must be in (0,1), got 1.5"),
    ("phi = -1", "report", "run.cfg:8: phi must be positive, got -1.0"),
    ("em.phi = 1", "report", "run.cfg:8: unknown config key 'em.phi'"),
    ("", "simulate --sigma2 -1", "sigma2 must be positive, got -1.0"),
    ("", "simulate --sigma2 0", "sigma2 must be positive, got 0.0"),
    ("", "simulate --n 0", "n must be >= 1, got 0"),
    ("", "simulate --p 0", "p must be >= 1, got 0"),
    ("", "simulate --sigma2 inf", "sigma2 must be finite, got inf"),
    ("", "study --datasets 1 --p 0", "p must be >= 1, got 0"),
    ("", "study --datasets 0", "--datasets must be >= 1, got 0"),
    ("", "kappa-scan --kappas nan,100", "--kappas: kappa must be finite, got nan"),
    # flag values argparse cannot convert: one line, no usage block
    ("", "simulate --n abc",
     "spatialboost: error: argument --n: invalid int value: 'abc'"),
    ("", "kappa-scan --kappas 10,",
     "spatialboost: error: argument --kappas: expected comma-separated numbers"
     " such as 10,100,1000, got '10,'"),
    ("genotypes = header_only.tsv", "report",
     "header_only.tsv: no genotype rows below the header"),
    ("gammas = 0", "report", "run.cfg:8: gamma must be positive, got 0.0"),
    ("gammas = 0.5,0.5000001", "report",
     "run.cfg:8: gammas 0.5 and 0.5000001 both write selection_gamma0.5.tsv"),
    ("gibbs.iters = 0", "report",
     "run.cfg:8: need iters > burnin >= 0, got 0, 0"),
    ("gibbs.burnin = 120", "report",
     "run.cfg:8: need iters > burnin >= 0, got 120, 120"),
    ("rank_tol = 0", "report",
     "run.cfg:8: rank_tol must be positive and finite, got 0.0"),
    ("rank_tol = nan", "report", "run.cfg:8: bad value 'nan' for 'rank_tol'"),
    ("gibbs.xi0 = nan", "report", "run.cfg:8: bad value 'nan' for 'gibbs.xi0'"),
    ("relevances = nan_rel.tsv", "report", "nan_rel.tsv:1: non-finite score for gene0"),
    ("min_maf = 0.5", "report", "run.cfg:8: min_maf must be in [0, 0.5), got 0.5"),
    ("hwe_alpha = -1", "report",
     "run.cfg:8: hwe_alpha must be in [0, 1), got -1.0"),
    ("", "--seed -1 report", "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "config_line, command, message",
    CLI_ERRORS,
    ids=[f"{line or command}-{message}" for line, command, message in CLI_ERRORS],
)
def test_cli_errors_are_one_line_exit_2(tmp_path, config_line, command, message):
    cfg = _sim_config(tmp_path, config_line + "\n")
    (tmp_path / "header_only.tsv").write_text("#pheno\trs1:1:100\trs2:1:200\n")
    (tmp_path / "nan_rel.tsv").write_text("gene0\tnan\n")
    src = os.path.dirname(os.path.dirname(spatialboost.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "spatialboost", "--config", cfg, *command.split()],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 2
    lines = (out.stdout + out.stderr).splitlines()
    assert len(lines) == 1, lines
    assert message in lines[0]
    assert "Traceback" not in out.stderr
    # a bad setting or flag is rejected before the run makes its output
    # directory (the default out/ under the working directory)
    if message.startswith(("run.cfg:", "--", "spatialboost: error: argument")) or (
        command.startswith("--")
    ):
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["config", "genotypes", "genes", "relevances"])
def test_undecodable_input_names_its_line(tmp_path, monkeypatch, capsys, kind):
    # a 0xff byte on line 3 of one input file: one error line naming
    # path:3, exit 2, no traceback
    monkeypatch.chdir(tmp_path)
    cfg = _sim_config(tmp_path, f"relevances = {tmp_path / 'rel.tsv'}\n")
    (tmp_path / "rel.tsv").write_text("ga\t1\ngb\t2\ngc\t3\n")
    path = {
        "config": tmp_path / "run.cfg",
        "genotypes": tmp_path / "sim" / "simulated_genotypes.tsv",
        "genes": tmp_path / "sim" / "simulated_genes.bed",
        "relevances": tmp_path / "rel.tsv",
    }[kind]
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["--config", cfg, "report"]) == 2
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert len(lines) == 1 and lines[0].startswith("spatialboost: error:"), lines
    assert f"{path}:3: not UTF-8 text" in lines[0], lines
    if kind == "config":  # rejected before the run makes its output directory
        assert not (tmp_path / "out").exists()


def test_crlf_config_and_genotypes_run(tmp_path):
    cfg = _sim_config(tmp_path)
    assert main(["--config", cfg, "--out-dir", str(tmp_path / "lf"), "boosts"]) == 0
    geno = tmp_path / "sim" / "simulated_genotypes.tsv"
    for path in (tmp_path / "run.cfg", geno):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert main(["--config", cfg, "--out-dir", str(tmp_path / "crlf"), "boosts"]) == 0
    for name in ("filters.tsv", "boosts.tsv"):
        assert (tmp_path / "crlf" / name).read_bytes() == (
            tmp_path / "lf" / name
        ).read_bytes()


def test_manifest_config_reads_back(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the run writes into the default out/
    ran = run_pipeline(parse_config(_sim_config(tmp_path)), "filter").config
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    section = manifest.partition("[config]\n")[2].partition("[checksums]\n")[0]
    for config, text in ((RunConfig(), RunConfig().resolved_text()), (ran, section)):
        path = tmp_path / "manifest.cfg"
        path.write_text(text)
        assert parse_config(str(path)) == config


def _manifest_checksums(out_dir):
    text = (out_dir / "manifest.txt").read_text()
    return dict(
        ln.split(" = ") for ln in text.partition("[checksums]\n")[2].splitlines()
    )


def test_simulate_and_study_replace_report_directory(tmp_path, capsys):
    cfg = _sim_config(tmp_path)
    out_dir = tmp_path / "reused"
    assert main(["--config", cfg, "--out-dir", str(out_dir), "report"]) == 0
    assert (out_dir / "report.tsv").exists()
    sim_files = {"simulated_genes.bed", "simulated_truth.tsv"}
    for command, artifact, written in (
        (["simulate", "--n", "30", "--p", "20"], "simulated_genotypes.tsv", sim_files),
        (["study", "--datasets", "1", "--n", "40", "--p", "30"], "study.tsv", set()),
    ):
        written = written | {artifact}
        capsys.readouterr()
        assert main(["--seed", "3", "--out-dir", str(out_dir), *command]) == 0
        assert capsys.readouterr().out.splitlines()[0] == str(out_dir / artifact)
        assert set(os.listdir(out_dir)) == written | {"manifest.txt"}
        checksums = _manifest_checksums(out_dir)
        assert set(checksums) == written
        for name, digest in checksums.items():
            data = (out_dir / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest


def test_run_refuses_to_remove_its_own_inputs(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    cfg = _sim_config(tmp_path, f"out_dir = {sim_dir}\n")
    before = set(os.listdir(sim_dir))
    assert main(["--config", cfg, "report"]) == 2
    assert "choose another output directory" in capsys.readouterr().err
    assert set(os.listdir(sim_dir)) == before


def _study_run(tmp_path, name, config_text):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config_text)
    out_dir = tmp_path / name
    argv = ["study", "--datasets", "2", "--n", "50", "--p", "40", "--gibbs-ranking"]
    assert main(["--config", str(cfg), "--out-dir", str(out_dir), *argv]) == 0
    return out_dir


def test_study_honours_its_config(tmp_path):
    # two studies whose configs differ in gibbs.iters and em.kappa write
    # different tables, and each table is what study_harness gives for the
    # manifest's [config] and command flags; --gibbs-ranking runs the chain
    base = "seed = 4\nphi = 20000\ngibbs.burnin = 10\n"
    runs = [
        _study_run(tmp_path, "a", base + "gibbs.iters = 40\nem.kappa = 1000\n"),
        _study_run(tmp_path, "b", base + "gibbs.iters = 60\nem.kappa = 20\n"),
    ]
    tables = [(out / "study.tsv").read_text() for out in runs]
    assert tables[0] != tables[1]

    from spatialboost.sim import study_harness

    for out, table in zip(runs, tables):
        manifest = (out / "manifest.txt").read_text()
        command = manifest.partition("\ncommand = ")[2].partition("\n")[0]
        words = command.split()
        assert words[0] == "study" and words[-1] == "--gibbs-ranking"
        flags = dict(zip(words[1:-1:2], map(int, words[2:-1:2])))
        section = manifest.partition("[config]\n")[2].partition("[checksums]\n")[0]
        (out / "manifest.cfg").write_text(section)
        config = parse_config(str(out / "manifest.cfg"))
        seeds = [config.seed + k for k in range(flags["--datasets"])]
        result = study_harness(config, flags["--n"], flags["--p"], seeds, True)
        assert result.to_tsv() == table


def test_genotype_rows_match_per_cell_formatter():
    from spatialboost.cli import genotype_rows
    from spatialboost.sim import synthetic_genotypes

    rng = np.random.default_rng(11)
    for n, p in ((1, 1), (3, 1), (1, 7), (40, 150)):
        G = synthetic_genotypes(n, p, rng)
        y = rng.integers(0, 2, n).astype(np.int8)
        want = "".join(
            str(int(y[i])) + "\t" + "\t".join(str(int(g)) for g in G[i]) + "\n"
            for i in range(n)
        )
        assert genotype_rows(y, G) == want
