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
                       "tail_bound = (2.0 * (a_bound + 1.0) * (series_tail + corrupted) / den)"
                       ".tolist()",
                       "tail_bound = (2.0 * (a_bound + 1.0) * (series_tail - corrupted) / den)"
                       ".tolist()"),
    "corrupted-shells": ("src/qsu2/spectral.py",
                         "corrupted = np.sum(weights[:, Ld - a.degree() + 1:], axis=1)"
                         "  # the shells 2n > Ld - depth",
                         "corrupted = np.sum(weights[:, Ld - a.degree() + 2:], axis=1)"),
    "safe-shell-depth": ("src/qsu2/algebra.py", "nd = max(deg, 2)", "nd = max(deg - 1, 2)"),
    "rho-sign": ("src/qsu2/peterweyl.py",
                 "return q ** -np.arange(-top, top + 1, dtype=float)",
                 "return q ** np.arange(-top, top + 1, dtype=float)"),
    # the Haar shell sums over spin paths and the relative modular scaling
    "drop-a-path": ("src/qsu2/algebra.py", "for path, steps in paths:",
                    "for path, steps in paths[1:]:"),
    "adjoint-shell-shift": ("src/qsu2/algebra.py",
                            "return tuple(-x for x in shift) if self.adjoint else shift",
                            "return (shift[0],) + tuple(-x for x in shift[1:]) "
                            "if self.adjoint else shift"),
    "modular-scaling-absolute": ("src/qsu2/spectral.py",
                                 "return {k: float(worst[k] / c) for k, (_, c) in gens.items()}",
                                 "return {k: float(worst[k]) for k in gens}"),
    # the ladder over all levels, the vacuum memo a word length at a time, the per-word defects
    "ladder-last-level": ("src/qsu2/gns_oracle.py", "k1 = min(k0 + LADDER_LEVELS, K + 1)",
                          "k1 = min(k0 + LADDER_LEVELS, K)"),
    "vacuum-neighbour-column": ("src/qsu2/algebra.py", "held.update(zip(group, vecs.T))",
                                "held.update(zip(group, np.roll(vecs, 1, axis=1).T))"),
    "modular-b-not-adjoint": ("src/qsu2/spectral.py", "b_adj = [b.adjoint() for b in b_list]",
                              "b_adj = list(b_list)"),
    # validate's two routes, each read once for all its words
    "validate-psi-with-itself": ("src/qsu2/cli.py", "worst = max(worst, abs(gns - ladder))",
                                 "worst = max(worst, abs(gns - gns))"),
    "ladder-shortest-offset": ("src/qsu2/gns_oracle.py",
                               "lo = max(k0 - reach, 0) // _STEP * _STEP",
                               "lo = max(k0 - min(map(len, totals)), 0) // _STEP * _STEP"),
    # the relation battery on its shell grid
    "battery-no-diagonal-constant": ("src/qsu2/algebra.py", "np.subtract(v, inside, out=v)",
                                     "np.subtract(v, 0.0, out=v)"),
    "battery-safe-shells-one-further": ("src/qsu2/algebra.py",
                                        "chunks = _grid_chunks(self.trunc.lmax.doubled - 1)",
                                        "chunks = _grid_chunks(self.trunc.lmax.doubled)"),
    "grid-shift-row-off-by-one": ("src/qsu2/algebra.py",
                                  "read = lambda band, s: grid[band, start + (s[0] * w + s[1]) * w"
                                  " + s[2]:][:n]",
                                  "read = lambda band, s: grid[band, start + (s[0] * w + s[1]"
                                  " - (s == (1, 1, 1))) * w + s[2]:][:n]"),
    # the battery's shared and skipped keys, and the starred bands read from the unstarred
    "mirror-skip-drops-the-o>0-key": ("src/qsu2/algebra.py",
                                      "if not (mirrored and key[0] < 0):",
                                      "if not (mirrored and key[0] > 0):"),
    "starred-band-at-negated-offset": ("src/qsu2/algebra.py",
                                       "sx = tuple(map(sum, zip(sy, x.step(bx))))"
                                       " if x.adjoint else sy",
                                       "sx = tuple(u - v for u, v in zip(sy, x.step(bx)))"
                                       " if x.adjoint else sy"),
    # the modular scaling on the shell grid and the shell norms on their leading shells
    "scaling-row-weight-off-by-one": ("src/qsu2/spectral.py",
                                      "rho = {r: powers.take(e + r, mode=\"clip\")"
                                      " for r in (2, 0, -2)}  # at the row, by rd + sd",
                                      "rho = {r: powers.take(e + r + 2, mode=\"clip\")"
                                      " for r in (2, 0, -2)}"),
    "series-leading-space-one-shell-short": ("src/qsu2/spectral.py",
                                             "lead = Basis(Truncation(HalfInteger(top + depth_d)))",
                                             "lead = Basis(Truncation(HalfInteger(top + depth_d"
                                             " - 1)))"),
    # the shell norms diagonalize only the chains whose bound reaches the shell's lower bound
    "chain-margin-dropped": ("src/qsu2/spectral.py",
                             "live = ~(upper[c, kept - 1] < (1 - CHAIN_MARGIN) * lower[k])"
                             "  # a NaN bound is live",
                             "live = ~(upper[c, kept - 1] < lower[k])"),
    "chain-nan-bound-prunable": ("src/qsu2/spectral.py",
                                 "live = ~(upper[c, kept - 1] < (1 - CHAIN_MARGIN) * lower[k])"
                                 "  # a NaN bound is live",
                                 "live = upper[c, kept - 1] >= (1 - CHAIN_MARGIN) * lower[k]"),
    "chain-bound-from-diagonal": ("src/qsu2/spectral.py", "upper[chain, pos] = rowsum",
                                  "upper[chain, pos] = buf[at + pos].real"),
    # the bands read from the grid: a starred band at its step, every zero +0.0
    "bands-starred-read-unshifted": ("src/qsu2/algebra.py",
                                     "ds, dr, dc = self.step(b) if self.adjoint else (0, 0, 0)",
                                     "ds, dr, dc = (0, 0, 0)"),
    "bands-signed-zero": ("src/qsu2/algebra.py",
                          "np.add(shell, 0.0, out=band[start[n]:start[n + 1]].reshape(n + 1, n + 1))",
                          "band[start[n]:start[n + 1]].reshape(n + 1, n + 1)[:] = shell"),
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
    """CAUGHT (with the first failing or erroring test), SURVIVED or STALE."""
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
    failed = [text for text in done.stdout.splitlines() if text.startswith(("FAILED", "ERROR"))]
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
