"""End-to-end and per-layer benchmark of the spatialboost CLI.

    python3 perfbench/run.py --workload gwas_wide --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Run from anywhere; the program under test is the ``src/`` tree next to this
directory, imported through PYTHONPATH (nothing is installed). Each run
generates the workload's inputs from ``--seed`` (perfbench/gen.py), times
``--help`` start-ups for ``setup_s``, then runs ``spatialboost report`` in a
closed loop, one child process at a time, until ``--seconds`` have passed (one
untimed warm-up call, then at least ``MIN_CALLS`` timed calls). Every call
writes to a fresh output directory whose files are checked (checksums, row counts, BFDR consistency, byte-identical
reports across calls, boosts against an independent implementation).

Right before each untraced call a fixed reference child (``REF_ARGV``: the
interpreter importing numpy and scipy.stats, no spatialboost code) is timed
the same way. ``wall_rel`` and ``cpu_rel`` are medians over calls of the
call's time divided by its reference's, so a host that runs everything
slower for a minute moves both and leaves the ratio; raw seconds are printed
and reported per layer.

With ``--trace 0`` the last stdout line holds the end-to-end metrics (medians
over calls); with ``--trace 1`` calls alternate between untraced and traced
(perfbench/traced.py) and it holds the per-layer metrics (medians over traced
calls) plus the tracing overhead. ``--workload all`` runs every workload in
both modes and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread here and in every child (they inherit the environment): on
# two vCPUs of a shared host, two BLAS threads spin-wait on each other
# whenever the host preempts one, which times the scheduler, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from gen import WORKLOADS, generate
from traced import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

MIN_CALLS = 3  # untraced calls per run, so each median has three samples
SETUP_REPS = 5
CALL_TIMEOUT_S = 150
BOOST_SAMPLE = 40  # SNPs whose boost is recomputed independently
# host-speed reference: start-up work of the same kind as a call's, fixed
# by the environment alone, so no change to src/ can move it
REF_ARGV = [sys.executable, "-c", "import numpy, scipy.stats"]

END_TO_END_UNITS = {
    "wall_rel": "ratio",
    "cpu_rel": "ratio",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "selection_auc": "ratio",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us_per_draw", "us"),
                         ("_gflop", "GFLOP"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------- children


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> dict:
    """Run one child to completion; wall, CPU and peak RSS of that child."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,  # Linux reports KiB
        "exit": proc.returncode,
    }


# ------------------------------------------------------------------ checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    rows = [ln.split("\t") for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    return rows[0], rows[1:]


def snp_loci(genotypes: Path) -> dict[str, tuple[str, int]]:
    with open(genotypes) as fh:
        header = fh.readline().rstrip("\n").split("\t")[1:]
    out = {}
    for col in header:
        sid, chrom, pos = col.split(":")
        out[sid] = (chrom, int(pos))
    return out


def reference_boosts(inputs: Path, snps: list[tuple[str, int]], phi: float):
    """Raw boosts from the definition: genes cut into disjoint blocks whose
    relevance is the mean over covering genes, each block weighted by the
    N(s, phi^2) mass over it."""
    rel = {}
    for ln in (inputs / "relevances.tsv").read_text().splitlines():
        gid, score = ln.split()
        rel[gid] = float(score)
    genes: dict[str, list[tuple[int, int, float]]] = {}
    for ln in (inputs / "genes.bed").read_text().splitlines():
        chrom, start, end, gid = ln.split()
        genes.setdefault(chrom, []).append((int(start), int(end), rel[gid]))
    blocks: dict[str, list[tuple[int, int, float]]] = {}
    for chrom, gs in genes.items():
        cuts = sorted({x for s, e, _ in gs for x in (s, e)})
        for a, b in zip(cuts[:-1], cuts[1:]):
            cover = [r for s, e, r in gs if s < b and e > a]
            if cover:
                blocks.setdefault(chrom, []).append((a, b, sum(cover) / len(cover)))

    def cdf(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    return [
        sum(r * (cdf((b - s) / phi) - cdf((a - s) / phi))
            for a, b, r in blocks.get(chrom, ()))
        for chrom, s in snps
    ]


def check_boosts(out: Path, inputs: Path, loci) -> list[str]:
    errors = []
    text = (out / "boosts.tsv").read_text()
    phi = float(text.split("\n", 1)[0].split("\t")[0].removeprefix("# phi="))
    _, rows = read_tsv(out / "boosts.tsv")
    boosts = {sid: float(b) for sid, b in rows}
    if any(sid not in loci for sid in boosts):
        errors.append("boosts.tsv names a SNP absent from the input")
        return errors
    values = list(boosts.values())
    if max(values) != 1.0:
        errors.append(f"boosts.tsv maximum is {max(values)}, not 1")
    top = max(boosts, key=boosts.get)
    ids = list(boosts)
    sample = ids[:: max(1, len(ids) // BOOST_SAMPLE)] + [top]
    raw = reference_boosts(inputs, [loci[s] for s in sample], phi)
    for sid, r in zip(sample, raw):
        want = r / raw[-1]
        if abs(boosts[sid] - want) > 1e-9 + 1e-6 * abs(want):
            errors.append(f"boost of {sid}: program {boosts[sid]}, reference {want}")
            break
    return errors


def check_report(out: Path, inputs: Path, loci) -> tuple[list[str], dict]:
    errors = []
    listed = {}
    section = None
    for ln in (out / "manifest.txt").read_text().splitlines():
        if ln.startswith("["):
            section = ln
        elif section == "[checksums]" and " = " in ln:
            name, digest = ln.split(" = ")
            listed[name] = digest
    for name, digest in listed.items():
        if not (out / name).is_file() or sha256(out / name) != digest:
            errors.append(f"{name} does not match its manifest checksum")
    extra = {p.name for p in out.iterdir()} - set(listed) - {"manifest.txt"}
    if extra:
        errors.append(f"files outside the manifest: {sorted(extra)}")

    _, filt = read_tsv(out / "filters.tsv")
    passed = [sid for sid, _, hwe in filt if hwe == "1"]
    head, rows = read_tsv(out / "report.tsv")
    col = {name: k for k, name in enumerate(head)}
    if [r[0] for r in rows] != passed:
        errors.append(f"report.tsv has {len(rows)} rows for {len(passed)} post-QC SNPs")
    pi = {}
    for r in rows:
        raw = r[col["pi_hat"]]
        if raw == "NA":
            continue
        pi[r[0]] = float(raw)
        if not 0.0 <= pi[r[0]] <= 1.0:
            errors.append(f"pi_hat {raw} of {r[0]} outside [0,1]")
            break
    selected = sum(int(r[col["selected_gamma1"]]) for r in rows)
    _, bf = read_tsv(out / "bfdr.tsv")
    at1 = [int(r[3]) for r in bf if float(r[0]) == 1.0]
    if at1 != [selected]:
        errors.append(f"bfdr.tsv selects {at1} at gamma=1, report.tsv {selected}")
    return errors + check_boosts(out, inputs, loci), pi


def auc(scores: dict[str, float], truth: dict[str, int]) -> float:
    """Mann-Whitney AUC; SNPs without a score rank last, ties count half."""
    ranked = sorted(truth, key=lambda s: scores.get(s, -1.0))
    ranks: dict[str, float] = {}
    k = 0
    while k < len(ranked):
        j = k
        key = scores.get(ranked[k], -1.0)
        while j < len(ranked) and scores.get(ranked[j], -1.0) == key:
            j += 1
        for s in ranked[k:j]:
            ranks[s] = (k + j + 1) / 2.0
        k = j
    pos = [s for s, t in truth.items() if t]
    n_pos, n_neg = len(pos), len(truth) - len(pos)
    return (sum(ranks[s] for s in pos) - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


# ----------------------------------------------------------------- machine


def blas_threads() -> str:
    """OpenBLAS thread count as this interpreter's numpy loaded it."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return str(fn())
    return "unknown"


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in SRC.rglob("*.py")
        ),
    }


# --------------------------------------------------------------------- run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    generate(name, seed, str(work))
    loci = snp_loci(work / "genotypes.tsv")
    _, truth_rows = read_tsv(work / "truth.tsv")
    truth = {sid: int(theta) for sid, theta, _ in truth_rows}

    setup = [spawn([sys.executable, "-m", "spatialboost", "--help"], work,
                   work / "setup.log") for _ in range(SETUP_REPS)]
    setup_ok = all(rec["exit"] == 0 for rec in setup)
    setup = [rec["wall_s"] for rec in setup]

    calls, traced_calls, failures = [], [], []
    first_digest = None
    scores = None
    deadline = time.perf_counter() + seconds
    k = 0
    need = MIN_CALLS - 1 if trace else MIN_CALLS  # of each kind
    while (time.perf_counter() < deadline
           or len(calls) < need
           or (trace and len(traced_calls) < need)):
        is_traced = trace and k % 2 == 1
        out_name = f"out-{k:04d}"
        out = work / out_name
        errors = [f"{out_name} exists before the call"] if out.exists() else []
        cli_args = ["--config", "run.cfg", "--out-dir", out_name, "report"]
        spans = work / f"spans-{k:04d}.json"
        argv = ([sys.executable, str(HERE / "traced.py"), str(spans), "--", *cli_args]
                if is_traced else [sys.executable, "-m", "spatialboost", *cli_args])
        log = work / f"call-{k:04d}.log"
        ref = None if is_traced else spawn(REF_ARGV, work, work / "ref.log")
        if ref is not None and ref["exit"] != 0:
            errors.append(f"reference exit {ref['exit']}: "
                          f"{(work / 'ref.log').read_text()[-500:]}")
        rec = spawn(argv, work, log)
        if ref is not None:
            rec["ref_wall_s"], rec["ref_cpu_s"] = ref["wall_s"], ref["cpu_s"]
        if rec["exit"] != 0:
            errors.append(f"exit {rec['exit']}: {log.read_text()[-500:]}")
        else:
            try:
                found, call_scores = check_report(out, work, loci)
                errors += found
                digest = sha256(out / "report.tsv")
                if first_digest is None:
                    first_digest, scores = digest, call_scores
                elif digest != first_digest:
                    errors.append(f"{out_name}: output differs from the first call")
                rec["output_mb"] = sum(
                    p.stat().st_size for p in out.iterdir()) / 1e6
            except (OSError, ValueError, IndexError, KeyError) as exc:
                errors.append(f"unreadable output: {exc!r}")
        if errors:
            failures.append((out_name, errors))
        elif k == 0:
            pass  # warm-up: checked, not timed
        elif is_traced:
            rec["layers"] = layer_metrics(str(spans))
            traced_calls.append(rec)
        else:
            calls.append(rec)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        if len(failures) > 2:
            break

    attempted = k
    correct = setup_ok and not failures and scores is not None
    metrics = {}
    if trace:
        if traced_calls and calls:
            for key in traced_calls[0]["layers"]:
                metrics[key] = statistics.median(
                    c["layers"][key] for c in traced_calls)
            metrics["trace.overhead_s"] = (
                statistics.median(c["wall_s"] for c in traced_calls)
                - statistics.median(c["wall_s"] for c in calls))
            for key, raw in (("process.wall_s", "wall_s"),
                             ("process.cpu_s", "cpu_s"),
                             ("process.ref_s", "ref_wall_s")):
                metrics[key] = statistics.median(c[raw] for c in calls)
        units = {m: per_layer_unit(m) for m in metrics}
        samples = len(traced_calls)
    else:
        if calls:
            for c in calls:
                c["wall_rel"] = c["wall_s"] / c["ref_wall_s"]
                c["cpu_rel"] = c["cpu_s"] / c["ref_cpu_s"]
            for key in ("wall_rel", "cpu_rel", "peak_rss_mb", "output_mb"):
                metrics[key] = statistics.median(c[key] for c in calls)
            metrics["selection_auc"] = auc(scores, truth)
            metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END_UNITS
        samples = len(calls)

    if not setup_ok:
        print(f"FAILED {name}: --help exited non-zero; see {work / 'setup.log'}")
    for out_name, errors in failures:
        for e in errors:
            print(f"FAILED {name} {out_name}: {e}")
    print(f"{name} seed={seed} trace={int(trace)} calls={attempted} "
          f"samples={samples} failed={len(failures)}")
    print("  call wall_s: " + " ".join(
        f"{c['wall_s']:.3f}{'T' if 'layers' in c else ''}"
        for c in calls + traced_calls))
    if calls:
        for key in ("wall_s", "cpu_s", "ref_wall_s"):
            q1, q2, q3 = quartiles([c[key] for c in calls])
            print(f"  raw {key:30s} {q2:14.6g} s  (q1 {q1:.4g}, q3 {q3:.4g}, "
                  f"n {len(calls)})")
    for key, val in metrics.items():
        spread = ""
        if not trace and key in ("wall_rel", "cpu_rel", "peak_rss_mb"):
            q1, _, q3 = quartiles([c[key] for c in calls])
            spread = f"  (q1 {q1:.4g}, q3 {q3:.4g}, n {len(calls)})"
        elif key == "setup_s":
            q1, _, q3 = quartiles(setup)
            spread = f"  (q1 {q1:.4g}, q3 {q3:.4g}, n {len(setup)})"
        print(f"  {key:34s} {val:14.6g} {units[key]}{spread}")
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"inputs and logs kept in {work}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="spatialboost benchmark")
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "spatialboost" / "cli.py").is_file():
        print(f"error: no spatialboost sources under {SRC}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine_info()))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace)
            ok = ok and result["correct"]
            print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
