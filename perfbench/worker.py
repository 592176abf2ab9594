"""One fresh-process invocation of the qsu2 CLI, timed, traced or counted.

    python3 perfbench/worker.py <mode> <result.json> <cli argv...>

Modes:
  import  import qsu2.cli and exit (warms the bytecode and file caches)
  time    setup_s (import of qsu2.cli), wall_s (qsu2.cli.main(argv)), exit
          code and peak RSS of this process
  trace   as time, with a span recorded around each public call into the
          qsu2 modules; spans stay in memory and go to the result file at exit
  count   qsu2.cli.main(argv) under cProfile; exact call counts of the
          functions in COUNTED

The program's sources are not modified: tracing wraps the public functions
from outside, in this process only.
"""
from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# metric name -> (module, attribute path) of the counted function
COUNTED = {
    "peterweyl.basis_builds": ("peterweyl", "Basis.__init__"),
    "qarith.cg_calls": ("qarith", "_cg_doubled"),
    "qarith.q_number_calls": ("qarith", "q_number"),
    "algebra.table_builds": ("algebra", "GeneratorTable.__init__"),
    "algebra.mult_operator_calls": ("algebra", "mult_operator"),
    "gns_oracle.oracle_haar_calls": ("gns_oracle", "oracle_haar"),
    "spectral.shell_norm_calls": ("spectral", "shell_norm"),
}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Flat in-memory span list: [name, parent index, start, end, rss_hwm_mb]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.facts = {}

    def wrap(self, name, fn, fact=None):
        """fn with a span around each call; name may be a function of the call args.

        fact(args, kwargs, result) -> (key, value) or None; the largest value per key is kept.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name,
                    self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[4] = _rss_mb()
                self.stack.pop()
            found = fact(args, kwargs, result) if fact is not None else None
            if found is not None:
                key, value = found
                self.facts[key] = max(self.facts.get(key, 0), value)
            return result
        return wrapper


def _rebind(orig, new) -> None:
    """Point every qsu2 module attribute and the experiment table bound to orig at new."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qsu2" or mod_name.startswith("qsu2."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
    experiments = sys.modules["qsu2.cli"].EXPERIMENTS
    for key, value in experiments.items():
        if value is orig:
            experiments[key] = new


def install_tracer(tracer: Tracer) -> None:
    from qsu2 import algebra, cli, dirac, gns_oracle, peterweyl, spectral

    def wrap_method(cls, attr, name, fact=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), fact))

    wrap_method(peterweyl.Basis, "__init__", "peterweyl.basis",
                lambda a, kw, r: ("peterweyl.dim", a[0].dim))
    wrap_method(algebra.GeneratorTable, "__init__", "algebra.table",
                lambda a, kw, r: ("algebra.gen_nnz",
                                  sum(op.mat.nnz for op in a[0].ops.values())))
    wrap_method(algebra.GeneratorTable, "validate", "algebra.battery")

    def dirac_kind(args, kwargs):
        return "dirac.dirac_" + (args[1] if len(args) > 1 else kwargs["kind"])

    def d_nnz(args, kwargs, result):
        return ("dirac.d_nnz", result.mat.nnz) \
            if dirac_kind(args, kwargs) == "dirac.dirac_true" else None

    wrap_method(dirac.DiracContext, "dirac_operator", dirac_kind, d_nnz)
    prop = dirac.DiracContext.__dict__["change_of_basis"]
    traced = functools.cached_property(tracer.wrap("dirac.change_of_basis", prop.func))
    traced.__set_name__(dirac.DiracContext, "change_of_basis")
    dirac.DiracContext.change_of_basis = traced

    functions = [
        (algebra, "mult_operator", "algebra.mult_operator"),
        (algebra, "haar_state", "algebra.haar_state"),
        (gns_oracle, "oracle_haar", "gns_oracle.oracle_haar"),
        (spectral, "absD_commutator_series", "spectral.absD_series"),
        (spectral, "absD_commutator_cap", "spectral.absD_cap"),
        (spectral, "trueD_growth", "spectral.trueD_growth"),
        (spectral, "rho_trace_functional", "spectral.rho_trace"),
        (spectral, "haar_via_heat", "spectral.haar_via_heat"),
        (spectral, "modular_check", "spectral.modular_check"),
        (spectral, "heat_trace", "spectral.heat_trace"),
        (spectral, "asymptotic_band", "spectral.asymptotic_band"),
        (cli, "write_rows", "cli.write_rows"),
    ] + [(cli, fn.__name__, "cli." + fn.__name__) for fn in cli.EXPERIMENTS.values()]
    for mod, attr, name in functions:
        orig = getattr(mod, attr)
        _rebind(orig, tracer.wrap(name, orig))


def _resolve(mod_name: str, path: str):
    obj = sys.modules["qsu2." + mod_name]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def count_calls(argv: list) -> tuple:
    """(exit code, {metric: exact call count}) of one cProfile'd qsu2.cli.main(argv)."""
    import cProfile
    import qsu2.cli

    prof = cProfile.Profile()
    prof.enable()
    try:
        rc = qsu2.cli.main(argv)
    finally:
        prof.disable()
    prof.create_stats()
    counts = {}
    for metric, (mod_name, path) in COUNTED.items():
        code = _resolve(mod_name, path).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts[metric] = prof.stats[key][1] if key in prof.stats else 0
    return rc, counts


def main(mode: str, result_path: str, argv: list) -> None:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qsu2.cli
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if mode == "count":
        out["rc"], out["counts"] = count_calls(argv)
    elif mode in ("time", "trace"):
        entry = qsu2.cli.main
        tracer = None
        if mode == "trace":
            tracer = Tracer()
            install_tracer(tracer)
            entry = tracer.wrap("cli.main", entry)
        t1 = time.perf_counter()
        out["rc"] = entry(argv)
        out["wall_s"] = time.perf_counter() - t1
        out["peak_rss_mb"] = _rss_mb()
        if tracer is not None:
            out["spans"] = tracer.spans
            out["facts"] = tracer.facts
    elif mode != "import":
        raise SystemExit("unknown mode %r" % mode)
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
