"""One-line mutations of the program's promises, each run against the test suite.

Run by hand from the repository root (about 30 s per mutation on 2 vCPU):

    python tests/mutations.py            # every mutation
    python tests/mutations.py cap slope  # some of them, by name

Each mutation replaces one line of a copy of the repository in a temporary
directory, matched by its text without indentation, and runs the suite
there without tests/test_golden.py: the goldens compare bytes, so they
would catch any change of value, and the point is which test of a promise
catches it.  A mutation that no test catches is reported as SURVIVED; one
whose line is no longer in the program is reported as STALE.  The exit
status is the number of mutations that survived or went stale.  pytest does
not collect this file: its name does not start with test_.
"""
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (file, line, its replacement)
MUTATIONS = {
    # the CLI verdicts
    "cap": ("src/qsu2/cli.py",
            "ok_abs = plateau < 0.01 and (series_abs.values <= cap).all()",
            "ok_abs = plateau < 0.01"),
    "slope": ("src/qsu2/cli.py", "ok_true = series_true.slope > 0", "ok_true = True"),
    "modular-defect": ("src/qsu2/cli.py", '"PASS" if defect < 1e-9 else "FAIL"])', '"PASS"])'),
    "modular-scaling-row": ("src/qsu2/cli.py", '"PASS" if res < 1e-12 else "FAIL"])', '"PASS"])'),
    "haar-abs-error": ("src/qsu2/cli.py", '"PASS" if err < cfg.tolerance else "FAIL"])',
                       '"PASS"])'),
    "heat-spread": ("src/qsu2/cli.py", "ok = spread is not None and spread < 5", "ok = True"),
    # the promises behind them
    "tail-direction": ("src/qsu2/spectral.py",
                       "tail_bound = 2.0 * (a_bound + 1.0) * (series_tail + corrupted) / den",
                       "tail_bound = 2.0 * (a_bound + 1.0) * (series_tail - corrupted) / den"),
    "corrupted-shells": ("src/qsu2/spectral.py",
                         "corrupted = float(np.sum(weights[Ld - a.degree() + 1:]))"
                         "  # the shells 2n > Ld - depth",
                         "corrupted = float(np.sum(weights[Ld - a.degree() + 2:]))"),
    "safe-shell-depth": ("src/qsu2/algebra.py", "nd = max(deg, 2)", "nd = max(deg - 1, 2)"),
    "rho-sign": ("src/qsu2/peterweyl.py",
                 "powers = q ** -np.arange(-top, top + 1, dtype=float)",
                 "powers = q ** np.arange(-top, top + 1, dtype=float)"),
    # the Haar shell sums over spin paths and the relative modular scaling
    "drop-a-path": ("src/qsu2/algebra.py", "for path, steps in paths:",
                    "for path, steps in paths[1:]:"),
    "adjoint-shell-shift": ("src/qsu2/algebra.py",
                            "return tuple(-x for x in shift) if self.adjoint else shift",
                            "return (shift[0],) + tuple(-x for x in shift[1:]) "
                            "if self.adjoint else shift"),
    "modular-scaling-absolute": ("src/qsu2/spectral.py", "return float(worst / c)",
                                 "return float(worst)"),
}


def mutate(tree: str, path: str, line: str, replacement: str) -> bool:
    """Replace the one line of tree/path whose text is line; False unless exactly one matches."""
    full = os.path.join(tree, path)
    with open(full) as fh:
        lines = fh.read().split("\n")
    hits = [k for k, text in enumerate(lines) if text.strip() == line]
    if len(hits) != 1:
        return False
    k = hits[0]
    lines[k] = lines[k][:len(lines[k]) - len(lines[k].lstrip())] + replacement
    with open(full, "w") as fh:
        fh.write("\n".join(lines))
    return True


def run(name: str) -> str:
    """CAUGHT (with the first failing test), SURVIVED or STALE."""
    path, line, replacement = MUTATIONS[name]
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        if not mutate(tmp, path, line, replacement):
            return "STALE"
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               "--ignore=tests/test_golden.py", "tests", "perfbench"],
                              cwd=tmp, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src")))
    if done.returncode == 0:
        return "SURVIVED"
    failed = [text for text in done.stdout.splitlines() if text.startswith("FAILED")]
    return "CAUGHT by " + (failed[0].split()[1] if failed else "exit %d" % done.returncode)


def main(names) -> int:
    bad = 0
    for name in names or MUTATIONS:
        verdict = run(name)
        bad += not verdict.startswith("CAUGHT")
        print("%-26s %s" % (name, verdict), flush=True)
    return bad


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
