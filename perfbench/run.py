"""Benchmark of the qsu2 CLI: fixed experiments, each run in fresh processes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(wall_s, setup_s, peak_rss_mb: medians over the invocations of the run);
with --trace 1 they are the per-layer ones of PER_LAYER.  A full record,
with the environment, every sample and the checks, goes to
perfbench/out/<workload>_seed<n>_trace<t>.json.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")
WORKER = os.path.join(HERE, "worker.py")
CHILD_TIMEOUT_S = 150
ORACLE_LEVELS = 80
HAAR_ABS_TOL = 1e-12
HEAT_REL_TOL = 1e-12
PROBE_SEEDS = 32


@dataclass(frozen=True)
class Workload:
    argv: tuple        # CLI arguments, without --out
    experiments: tuple  # experiments whose artifacts the run writes


# q = 1.2 throughout; --lmax is doubled.  No workload passes --seed: the
# power-iteration start vector stays at the CLI default.  BENCHMARK.json runs
# haar-ld62 and all-ld24; the other two are for runs by hand (see README.md).
WORKLOADS = {
    "haar-ld62": Workload(("haar", "--q", "1.2", "--lmax", "62", "--t-grid", "0.5:2:4"),
                          ("haar",)),
    "commutators-ld40": Workload(("commutators", "--q", "1.2", "--lmax", "40"),
                                 ("commutators",)),
    "all-ld24": Workload(("all", "--q", "1.2", "--lmax", "24"),
                         ("validate", "haar", "commutators", "heat", "modular")),
    "heat-mp-ld400": Workload(("heat", "--q", "1.2", "--lmax", "400",
                               "--t-grid", "0.01:0.5:24", "--t-log",
                               "--precision-bits", "113"), ("heat",)),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

LAYERS = ("peterweyl", "algebra", "gns_oracle", "dirac", "spectral", "cli")
# spans whose summed self time is reported as <span>_s
TIMED_SPANS = (
    "peterweyl.basis", "algebra.table", "algebra.battery", "algebra.mult_operator",
    "algebra.haar_state", "gns_oracle.oracle_haar", "dirac.change_of_basis",
    "dirac.dirac_true", "spectral.absD_series", "spectral.absD_cap",
    "spectral.trueD_growth", "spectral.rho_trace", "spectral.haar_via_heat",
    "spectral.modular_check", "spectral.heat_trace", "spectral.asymptotic_band",
    "cli.write_rows",
)
FACTS = ("peterweyl.dim", "algebra.gen_nnz", "dirac.d_nnz")

PER_LAYER = dict(
    [(span + "_s", "s") for span in TIMED_SPANS]
    + [(layer + ".self_s", "s") for layer in LAYERS]
    + [(layer + ".rss_hwm_mb", "MiB") for layer in LAYERS]
    + [(name, "count") for name in list(worker.COUNTED) + list(FACTS)]
    + [("spectral.shell_norm_fail_frac", "ratio"), ("cli.rows", "count"),
       ("cli.artifact_max_rel_dev", "ratio"), ("fail_frac", "ratio"),
       ("trace.total_s", "s"), ("trace.overhead_s", "s")])


class BenchError(RuntimeError):
    """The benchmark cannot run here (program missing, worker crashed)."""


# ------------------------------------------------------------------ processes

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QSU2_PRECISION_BITS", None)  # would override the workload's precision
    return env


def invoke(mode: str, argv: list, result_path: str) -> dict:
    """Run the worker in a fresh process and return what it recorded."""
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run([sys.executable, WORKER, mode, result_path] + list(argv),
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError("worker %s exited %d: %s"
                         % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
    with open(result_path) as fh:
        return json.load(fh)


def artifact_paths(wl: Workload, workdir: str) -> tuple:
    """(--out value, {experiment: artifact path}) following the CLI's naming."""
    out = os.path.join(workdir, "run.csv" if wl.argv[0] == "all"
                       else "run_%s.csv" % wl.argv[0])
    return out, {e: os.path.join(workdir, "run_%s.csv" % e) for e in wl.experiments}


def clear(workdir: str) -> None:
    for path in glob.glob(os.path.join(workdir, "*.csv")):
        os.remove(path)


def read_bytes(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


# -------------------------------------------------------------------- checks

def read_csv(path: str) -> list:
    """Rows as dicts.  The CLI joins cells with bare commas and a label such as
    Psi(t[1,1]) holds one, so cells are matched to columns from the right."""
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    names = header.split(",")[::-1]
    return [dict(zip(names, line.split(",")[::-1])) for line in lines]


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref else abs(x)


def independent_checks(experiment: str, rows: list) -> list:
    """One bool per comparison with an independent route to the same value."""
    from qsu2.algebra import NCPolynomial
    from qsu2.gns_oracle import oracle_haar
    from qsu2.peterweyl import Truncation
    from qsu2.qarith import HalfInteger
    from qsu2.spectral import heat_trace

    out = []
    if experiment == "haar":
        for r in rows:
            word = "" if r["observable"] == "1" else r["observable"]
            ref = oracle_haar(NCPolynomial.word(word), ORACLE_LEVELS, float(r["q"])).real
            out.append(abs(float(r["psi_reference"]) - ref) <= HAAR_ABS_TOL)
    elif experiment == "heat":
        for r in rows:
            rep = heat_trace(float(r["t"]), float(r["q"]),
                             Truncation(HalfInteger(int(r["lmax_doubled"]))))
            out.append(_rel(float(r["operator_trace"]), rep.operator_trace) <= HEAT_REL_TOL)
            out.append(_rel(float(r["closed_sum"]), rep.closed_sum) <= HEAT_REL_TOL)
    return out


def max_rel_dev(rows: list, ref_rows: list) -> float:
    """Largest relative deviation of a finite numeric cell from the reference artifact."""
    worst = 0.0
    for row, ref in zip(rows, ref_rows):
        for key, ref_text in ref.items():
            x, r = _as_float(row.get(key, "")), _as_float(ref_text)
            if x is not None and r is not None and math.isfinite(x) and math.isfinite(r):
                worst = max(worst, _rel(x, r))
    return worst


def check_invocation(name: str, wl: Workload, rc: int, paths: dict) -> dict:
    """Operations of one invocation: artifact rows plus the benchmark's checks.

    A row fails unless its status is PASS; an experiment that wrote no
    artifact fails every row (and every check) its reference has.
    """
    attempted, failed, rows_written, dev = 1, int(rc != 0), 0, 0.0
    for exp in wl.experiments:
        ref_rows = read_csv(os.path.join(REFERENCE, name, "run_%s.csv" % exp))
        expected = len(ref_rows) + len(independent_checks(exp, ref_rows))
        rows = read_csv(paths[exp]) if os.path.exists(paths[exp]) else []
        checks = independent_checks(exp, rows)
        passed = sum(r.get("status") == "PASS" for r in rows) + sum(checks)
        operations = max(expected, len(rows) + len(checks))
        attempted += operations
        failed += operations - passed
        rows_written += len(rows)
        dev = max(dev, max_rel_dev(rows, ref_rows))
    return {"attempted": attempted, "failed": failed, "rows": rows_written,
            "artifact_max_rel_dev": dev}


# ----------------------------------------------------------------- summaries

def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(spans: list) -> dict:
    """Self time per span name and per layer, and the RSS high-water mark per layer."""
    self_time = [end - start for _, _, start, end, _ in spans]
    for (_, parent, start, end, _) in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    out = {m: 0.0 for m in PER_LAYER if m.endswith("_s") or m.endswith("_mb")}
    for (name, _, _, _, rss), own in zip(spans, self_time):
        layer = name.split(".")[0]
        if name in TIMED_SPANS:
            out[name + "_s"] += own
        out[layer + ".self_s"] += own
        out[layer + ".rss_hwm_mb"] = max(out[layer + ".rss_hwm_mb"], rss)
    return out


def shell_norm_fail_frac(seed: int) -> float:
    """Share of power-iteration start seeds for which the commutators experiment fails.

    The seeds are drawn from the workload seed.  lmax_doubled 16 has the
    CLI's first shells, where the non-converging starts show.
    """
    import qsu2.cli

    rng = random.Random(seed)
    fails = 0
    for _ in range(PROBE_SEEDS):
        argv = ["commutators", "--q", "1.2", "--lmax", "16",
                "--seed", str(rng.randrange(2 ** 31))]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            fails += qsu2.cli.main(argv) != 0
    return fails / PROBE_SEEDS


def git_commit():
    """HEAD of the repository at ROOT, read from its .git files; None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)),
                        None)
    except OSError:
        return None


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "qsu2", "*.py"))):
        with open(path, "rb") as fh:
            source.update(fh.read())
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "thread_env": {k: os.environ.get(k) for k in threads},
            "git_commit": git_commit(), "source_sha256": source.hexdigest(), "seed": seed}


# ---------------------------------------------------------------------- runs

def timed_run(name: str, wl: Workload, seconds: float, workdir: str) -> dict:
    """Fresh-process invocations, back to back, until `seconds` have passed."""
    out_arg, paths = artifact_paths(wl, workdir)
    argv = list(wl.argv) + ["--out", out_arg]
    result_path = os.path.join(workdir, "worker.json")
    samples, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        clear(workdir)
        rec = invoke("time", argv, result_path)
        chk = check_invocation(name, wl, rec["rc"], paths)
        attempted += chk["attempted"]
        failed += chk["failed"]
        samples.append({k: rec[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "rc")})
    summaries = {m: summary([s[m] for s in samples]) for m in END_TO_END}
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "summary": summaries,
            "metrics": {m: summaries[m]["median"] for m in END_TO_END}}


def traced_run(name: str, wl: Workload, seed: int, workdir: str) -> dict:
    """A plain invocation, a traced one, two counting passes and the solver probe."""
    out_arg, paths = artifact_paths(wl, workdir)
    argv = list(wl.argv) + ["--out", out_arg]
    result_path = os.path.join(workdir, "worker.json")

    clear(workdir)
    plain = invoke("time", argv, result_path)
    chk = check_invocation(name, wl, plain["rc"], paths)
    artifacts = [read_bytes(p) for p in paths.values()]

    clear(workdir)
    traced = invoke("trace", argv, result_path)
    # tracing must not change what the CLI writes
    identical = [read_bytes(p) == a for p, a in zip(paths.values(), artifacts)]
    counts = [invoke("count", argv, result_path)["counts"] for _ in range(2)]
    attempted = chk["attempted"] + len(identical) + 1
    failed = chk["failed"] + identical.count(False) + int(counts[0] != counts[1])

    metrics = layer_metrics(traced["spans"])
    metrics.update(counts[0])
    metrics.update({k: traced["facts"].get(k, 0) for k in FACTS})
    total = traced["spans"][0][3] - traced["spans"][0][2]
    metrics.update({
        "spectral.shell_norm_fail_frac": shell_norm_fail_frac(seed),
        "cli.rows": chk["rows"],
        "cli.artifact_max_rel_dev": chk["artifact_max_rel_dev"],
        "fail_frac": failed / attempted,
        "trace.total_s": total,
        "trace.overhead_s": total - plain["wall_s"],
    })
    with open(os.path.join(OUT, "spans_%s_seed%d.json" % (name, seed)), "w") as fh:
        json.dump({"columns": ["name", "parent", "start", "end", "rss_hwm_mb"],
                   "spans": traced["spans"]}, fh)
    return {"attempted": attempted, "failed": failed, "untraced_wall_s": plain["wall_s"],
            "counts_pass2": counts[1], "metrics": metrics}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "qsu2", "cli.py")):
        raise BenchError("no program at %s: run from the repository root" % SRC)
    wl = WORKLOADS[name]
    workdir = os.path.join(OUT, "work-%s-%d" % (name, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    sys.path.insert(0, SRC)
    try:
        invoke("import", [], os.path.join(workdir, "worker.json"))  # warm caches
        res = traced_run(name, wl, seed, workdir) if trace \
            else timed_run(name, wl, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    res["correct"] = res["failed"] == 0
    res["metrics"] = {m: {"value": res["metrics"][m], "unit": units[m]} for m in units}
    record = {"workload": name, "argv": list(wl.argv), "seconds": seconds,
              "trace": int(trace), "environment": environment(seed)}
    record.update(res)
    with open(os.path.join(OUT, "%s_seed%d_trace%d.json" % (name, seed, trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
