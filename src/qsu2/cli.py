"""Command-line driver: experiment orchestration and machine-readable outputs.

All spin parameters cross the interface as doubled integers (--lmax 24
means lmax = 12).  Every output row carries the provenance tuple
(q, lmax_doubled, precision_bits, seed, version); numbers are written
with 17 significant digits so that identical configurations reproduce
byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .qarith import HalfInteger, QArithError, q_number
from .peterweyl import Truncation
from .algebra import (GeneratorTable, NCPolynomial, ValidationError, generator_tables,
                      haar_states, is_normal_word, mult_operator)
from .gns_oracle import ladder_cut, oracle_haar_words
from . import spectral

OBSERVABLES = ["", "a", "g", "Gg", "Aa", "aG"]  # 1, alpha, gamma, g*g, a*a, a g*


@dataclass
class RunConfig:
    q: float = 1.2
    lmax_doubled: int = 24
    t_grid: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    tolerance: float = 1e-8
    seed: int = 1234
    precision_bits: int = 53
    out: str = ""
    format: str = "csv"

    def __post_init__(self):
        if not math.isfinite(self.q) or self.q <= 0 or self.q == 1:
            raise QArithError("config: q must be finite, > 0 and != 1")
        if self.lmax_doubled < 0:
            raise QArithError("config: lmax_doubled must be >= 0")
        if not all(math.isfinite(t) and t > 0 for t in self.t_grid):
            raise QArithError("config: t values must be finite and > 0")
        if not math.isfinite(self.tolerance) or self.tolerance <= 0:
            raise QArithError("config: tolerance must be finite and > 0")
        if self.format not in ("csv", "json"):
            raise QArithError("config: format must be csv or json")
        if self.precision_bits < 53:
            raise QArithError("config: precision_bits must be >= 53 (float64)")

    @property
    def trunc(self) -> Truncation:
        return Truncation(HalfInteger(self.lmax_doubled))

    def provenance(self) -> dict:
        return {"q": self.q, "lmax_doubled": self.lmax_doubled,
                "precision_bits": self.precision_bits, "seed": self.seed,
                "version": __version__}


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    if isinstance(x, complex):
        return "%.17g%+.17gj" % (x.real, x.imag)
    return str(x)


def _csv_cell(x) -> str:
    """_fmt(x); in double quotes, each inner one doubled, if it holds a comma, quote or newline."""
    text = _fmt(x)
    return '"%s"' % text.replace('"', '""') if "," in text or '"' in text or "\n" in text else text


def write_rows(path: str, fmt: str, columns: list, rows: list, provenance: dict) -> None:
    """Write rows, each followed by the provenance cells, as CSV or JSON to path.

    The CSV tail of provenance cells is the same on every row, so it is
    formatted once per file.
    """
    cols = columns + list(provenance)
    if fmt == "csv":
        tail = "".join("," + _csv_cell(v) for v in provenance.values())
        lines = [",".join(map(_csv_cell, cols))]
        lines += [",".join(map(_csv_cell, r)) + tail for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        full = [list(r) + list(provenance.values()) for r in rows]
        text = json.dumps([dict(zip(cols, [(_fmt(x) if isinstance(x, (float, complex)) else x)
                                           for x in r])) for r in full], indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _word_label(w: str) -> str:
    return w if w else "1"


# ---------------------------------------------------------------- experiments

@functools.lru_cache(maxsize=2)
def generator_table(q: float, lmax_doubled: int) -> GeneratorTable:
    """The validated GeneratorTable at (q, lmax_doubled), shared by the experiments of one run.

    Kept for the two most recent arguments, so `all` builds the run's table
    once and, above lmax_doubled 62, the smaller one of `commutators` once;
    main() clears the cache when the invocation ends.  A ValidationError
    propagates and nothing is stored.
    """
    return GeneratorTable(q, Truncation(HalfInteger(lmax_doubled)))


def _rho_multiplier(n: float) -> float:
    return math.exp(-n * (n + 1))


def run_validate(cfg: RunConfig):
    rows = []
    q = cfg.q

    def record(name, residual):
        rows.append([name, residual, 1e-9, "PASS" if residual < 1e-9 else "FAIL"])

    # geometric-sum identity on the half-integer grid
    worst = 0.0
    for nd in range(0, 41):
        s = sum(q ** (-jd) for jd in range(-nd, nd + 1, 2))
        worst = max(worst, abs(s - q_number(nd + 1, q)) / max(1.0, abs(s)))
    record("qarith.geometric_sum", worst)

    # CG column normalization and branch orthogonality for 2l <= 20, over the
    # target weights jd = 2m - ld - 1, m = 0 .. ld + 1: up[b, ld, m] is
    # C(+1/2, branch, ld, jd - 1) and dn[b, ld, m] is C(-1/2, branch, ld,
    # jd + 1), slices of the CG tables, whose padding holds +0.0 for the
    # weights outside the spin (branch +1, then -1)
    cg = generator_tables(20, q)[0]
    up, dn = cg[0, :, 1:-1, :-1], cg[1, :, 1:-1, 1:]
    ld = np.arange(21)[:, None]
    jd = 2 * np.arange(22) - ld - 1
    norm = np.abs(up * up + dn * dn - 1.0)
    norm_kept = np.abs(jd) <= ld + np.array([1, -1])[:, None, None]
    dot = np.abs(up[0] * up[1] + dn[0] * dn[1])
    record("qarith.cg_normalization", float(norm[norm_kept].max(initial=0.0)))
    record("qarith.cg_orthogonality", float(dot[np.abs(jd) <= ld - 1].max(initial=0.0)))

    # Peter-Weyl orthonormality (Gram over spins <= 5): the unit-vector scale
    # [2n+1]_q^{1/2} q^{-i}, squared, times <t, t> = q^{2i} / [2n+1]_q; the value
    # does not depend on j
    worst = 0.0
    for nd in range(min(10, cfg.lmax_doubled) + 1):
        qn = q_number(nd + 1, q)
        for id_ in range(-nd, nd + 1, 2):
            g = (np.sqrt(qn) * q ** (-(id_ / 2.0))) ** 2 * (q ** float(id_) / qn)
            worst = max(worst, abs(g - 1.0))
    record("peterweyl.orthonormality", worst)

    # algebra relation battery, by the table's own rule: a residual <= RELATION_TOL passes
    try:
        table = generator_table(cfg.q, cfg.lmax_doubled)
        for name, residual in table.residuals.items():
            rows.append(["algebra.relation[%s]" % name, residual, GeneratorTable.RELATION_TOL,
                         "PASS" if residual <= GeneratorTable.RELATION_TOL else "FAIL"])
    except ValidationError as exc:
        rows.append(["algebra.relation[%s]" % exc.identity, exc.residual,
                     GeneratorTable.RELATION_TOL, "FAIL"])
        return rows, ["battery", "residual", "threshold", "status"]

    # two-path Haar agreement on monomials of degree <= 4, the ladder at its cut
    levels = ladder_cut(q)
    words = ["".join(w) for deg in range(min(4, cfg.lmax_doubled) + 1)
             for w in itertools.product("aAgG", repeat=deg)]
    worst = 0.0
    for gns, ladder in zip(haar_states(words, table), oracle_haar_words(words, levels, q)):
        worst = max(worst, abs(gns - ladder))
    record("oracle.two_path_agreement", worst)

    return rows, ["battery", "residual", "threshold", "status"]


def run_haar(cfg: RunConfig):
    table = generator_table(cfg.q, cfg.lmax_doubled)
    phi1 = spectral.rho_trace_functional(NCPolynomial.one(), _rho_multiplier, table)
    rows = []
    for w, psi in zip(OBSERVABLES, haar_states(OBSERVABLES, table)):
        p = NCPolynomial.word(w)
        for t, ratio, tail in zip(cfg.t_grid, *spectral.haar_via_heat(p, cfg.t_grid, table)):
            err = abs(ratio - psi)
            rows.append(["heat", _word_label(w), t, ratio.real, psi.real, err, tail,
                         "PASS" if err < cfg.tolerance else "FAIL"])
        # same ratio with an unrelated diagonal multiplier in place of the heat kernel
        phi = spectral.rho_trace_functional(p, _rho_multiplier, table)
        err = abs(phi / phi1 - psi)
        rows.append(["rho_multiplier", _word_label(w), 0.0, (phi / phi1).real,
                     psi.real, err, 0.0, "PASS" if err < cfg.tolerance else "FAIL"])
    cols = ["method", "observable", "t", "ratio", "psi_reference", "abs_error",
            "tail_bound", "status"]
    return rows, cols


def run_commutators(cfg: RunConfig):
    lmax, top_shell, top_l = cfg.lmax_doubled // 2, 20, 30  # the series' and witnesses' caps
    # the |D| series and the true-D growth read a at spins <= max(top) + 1/2, so the
    # table is built, and its battery run, on the spins <= max(top) + 1 at most
    table = generator_table(cfg.q, min(cfg.lmax_doubled, 2 * max(top_shell, top_l) + 2))
    a = spectral.witness_polynomial(table)
    aop = mult_operator(a, table)
    shells = [2 * s for s in range(4, min(top_shell, lmax - 1) + 1)]
    series_abs = spectral.absD_commutator_series(aop, shells)
    cap = spectral.absD_commutator_cap(a)
    ls = [2 * l for l in range(5, min(top_l, lmax - 1) + 1)]
    series_true = spectral.trueD_growth(aop, ls, cfg.q)

    plateau = abs(series_abs.values[-1] - series_abs.values[-2]) / series_abs.values[-1]
    ok_abs = plateau < 0.01 and (series_abs.values <= cap).all()
    ok_true = series_true.slope > 0
    print("absD plateau: last two differ %.3e (< 1%%: %s), cap %.6g"
          % (plateau, ok_abs, cap))
    print("trueD growth: slope %.6g intercept %.6g rms residual %.3e"
          % (series_true.slope, series_true.intercept, series_true.fit_residual))

    rows = []
    for sh, nrm in zip(series_abs.params, series_abs.values):
        rows.append(["", "", "", sh, nrm, cap, "PASS" if ok_abs else "FAIL"])
    for l, nrm in zip(series_true.params, series_true.values):
        rows.append([l, nrm, nrm / l, "", "", "", "PASS" if ok_true else "FAIL"])
    cols = ["l", "norm_trueD", "norm_over_l", "shell", "norm_absD", "cap", "status"]
    return rows, cols


def run_heat(cfg: RunConfig):
    rows = []
    svals = []
    band = []
    for t in sorted(cfg.t_grid):
        rep = spectral.heat_trace(t, cfg.q, cfg.trunc, precision_bits=cfg.precision_bits)
        try:
            s = spectral.band_value(cfg.q, t, cfg.trunc, rep.operator_trace)
        except spectral.PeakOutsideTruncationError:
            s = float("nan")
        band.append((t, rep, s))
        if not math.isnan(s):
            svals.append(s)
    # no spread without a positive s(t): all of them underflow to 0 at large t
    spread = max(svals) / min(svals) if svals and min(svals) > 0 else None
    ok = spread is not None and spread < 5
    for t, rep, s in band:
        rows.append([t, rep.operator_trace, rep.closed_sum, rep.tail_bound,
                     rep.k_exponent, s, "PASS" if ok else "FAIL"])
    print("heat band: %d points, max/min s = %s"
          % (len(svals), "n/a" if spread is None else "%.4f" % spread))
    cols = ["t", "operator_trace", "closed_sum", "tail_bound", "k_exponent",
            "s_band", "status"]
    return rows, cols


def run_modular(cfg: RunConfig):
    table = generator_table(cfg.q, cfg.lmax_doubled)
    words = [w for n in range(3) for w in
             ("".join(t) for t in itertools.product("aAgG", repeat=n))
             if is_normal_word(w)]
    polys = [NCPolynomial.word(w) for w in words]
    rows = []
    for wa, defects in zip(words, spectral.modular_defects(polys, polys, table)):
        for wb, defect in zip(words, defects):
            rows.append([_word_label(wa), _word_label(wb), defect,
                         "PASS" if defect < 1e-9 else "FAIL"])
    for (rd, sd), res in spectral.modular_generator_scaling(table).items():
        rows.append(["Psi(t[%d,%d])" % (rd, sd), "scaling", res,
                     "PASS" if res < 1e-12 else "FAIL"])
    cols = ["a", "b", "defect", "status"]
    return rows, cols


EXPERIMENTS = {
    "validate": run_validate,
    "haar": run_haar,
    "commutators": run_commutators,
    "heat": run_heat,
    "modular": run_modular,
}


# ----------------------------------------------------------------- plumbing

def parse_t_grid(text: str, log_spaced: bool = False) -> list:
    """start:stop:count, inclusive; optionally log-spaced."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise QArithError("t-grid must be start:stop:count, got %r" % text)
    if count < 1 or start <= 0 or stop <= 0:
        raise QArithError("t-grid needs positive endpoints and count >= 1")
    if count == 1:
        return [start]
    if log_spaced:
        return list(np.logspace(math.log10(start), math.log10(stop), count))
    return list(np.linspace(start, stop, count))


def read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise QArithError("config file line without '=': %r" % line)
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def build_config(args) -> RunConfig:
    values = {}
    if args.config:
        raw = read_config_file(args.config)
        casts = {"q": float, "lmax": int, "tol": float, "seed": int,
                 "precision_bits": int, "out": str, "format": str,
                 "t": float, "t_grid": str, "t_log": lambda v: v.lower() == "true"}
        for key, val in raw.items():
            if key not in casts:
                raise QArithError("unknown config key %r" % key)
            try:
                values[key] = casts[key](val)
            except ValueError:
                raise QArithError("config key %r: cannot read %r" % (key, val)) from None
    for key in ("q", "lmax", "tol", "seed", "precision_bits", "out", "format", "t",
                "t_grid", "t_log"):
        arg = getattr(args, key.replace("-", "_"), None)
        if arg is not None:
            values[key] = arg
    fields = {"q": "q", "lmax": "lmax_doubled", "tol": "tolerance", "seed": "seed",
              "precision_bits": "precision_bits", "out": "out", "format": "format"}
    kwargs = {name: values[key] for key, name in fields.items() if key in values}
    if values.get("t_grid"):
        kwargs["t_grid"] = parse_t_grid(values["t_grid"], values.get("t_log", False))
    elif values.get("t") is not None:
        kwargs["t_grid"] = [values["t"]]
    return RunConfig(**kwargs)  # RunConfig holds the one copy of each default


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="qsu2",
        description="Numerical spectral geometry of SU_q(2): Haar state from "
                    "heat traces, Dirac commutators, modular structure.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=list(EXPERIMENTS) + ["all"])
    parser.add_argument("--q", type=float)
    parser.add_argument("--lmax", type=int, help="largest retained spin, as a doubled integer")
    parser.add_argument("--t", type=float)
    parser.add_argument("--t-grid", help="start:stop:count")
    parser.add_argument("--t-log", action="store_true", default=None, help="log-space the t grid")
    parser.add_argument("--tol", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--precision-bits", type=int)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--config")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cfg = build_config(args)
    except (QArithError, OSError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2

    names = list(EXPERIMENTS) if args.command == "all" else [args.command]
    overall_fail = False
    try:
        for name in names:
            try:
                rows, cols = EXPERIMENTS[name](cfg)
            except Exception as exc:  # surfaced as a failed experiment, not a crash
                print("%s: ERROR %s" % (name, exc), file=sys.stderr)
                overall_fail = True
                continue
            n_fail = sum(1 for r in rows if r[-1] == "FAIL")
            overall_fail = overall_fail or n_fail > 0
            print("%s: %s (%d rows, %d failures)"
                  % (name, "FAIL" if n_fail else "PASS", len(rows), n_fail))
            out = cfg.out
            if out:
                if args.command == "all":
                    root, ext = os.path.splitext(out)
                    out = "%s_%s%s" % (root, name, ext or ".csv")
                write_rows(out, cfg.format, cols, rows, cfg.provenance())
    finally:
        generator_table.cache_clear()  # the shared table lives for one invocation
    return 1 if overall_fail else 0


if __name__ == "__main__":
    sys.exit(main())
