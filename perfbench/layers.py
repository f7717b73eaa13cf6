"""Per-layer probes of the traced run, and the layer map.

A probe wraps one public function or method of a ``heckelab`` module.
Span probes record a span per call (name, start, end, parent span) and
yield ``<name>.calls`` and ``<name>.self_s``; a span's self time is its
duration minus the time its child spans cover.  Counter probes only
count calls.  Hooks run after a call returns, outside any span, and add
work counts read off the arguments or the result.

LAYER_MAP says, for each group of per-layer metrics, which end-to-end
metric on which workload it should move and on which workloads it
should not move.  A change to one layer cites it by metric name.
The ``per_layer`` list of BENCHMARK.json is ``metric_names()``.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

MODULES = ("cli", "catalog", "clifford_lab", "representations",
           "finite_groups", "cyclotomic", "laurent", "_linalg",
           "root_datum", "torus_center", "iwahori_hecke", "apartment",
           "padic_groups")

# (metric prefix, module, qualified name)
SPANS = (
    ("cyclotomic.cyc_matmul", "cyclotomic", "cyc_matmul"),
    ("cyclotomic.cyc_rank", "cyclotomic", "cyc_rank"),
    ("cyclotomic.cyc_nullspace", "cyclotomic", "cyc_nullspace"),
    ("cyclotomic.cyc_solve", "cyclotomic", "cyc_solve"),
    ("representations.from_generators", "representations",
     "Representation.from_generators"),
    ("representations.from_matrices", "representations",
     "Representation.from_matrices"),
    ("finite_groups.FiniteGroup", "finite_groups", "FiniteGroup.__init__"),
    ("clifford_lab.check_hypotheses", "clifford_lab", "check_hypotheses"),
    ("clifford_lab.maximal_stabilizer", "clifford_lab", "maximal_stabilizer"),
    ("clifford_lab.multiplicity_transfer_check", "clifford_lab",
     "multiplicity_transfer_check"),
    ("clifford_lab.center_dimension_check", "clifford_lab",
     "center_dimension_check"),
    ("clifford_lab.commutativity_check", "clifford_lab",
     "commutativity_check"),
    ("catalog.build_catalog", "catalog", "build_catalog"),
    ("catalog.evaluate_entry", "catalog", "evaluate_entry"),
    ("laurent.rat_rank", "laurent", "rat_rank"),
    ("iwahori_hecke.satake_check", "iwahori_hecke", "satake_check"),
    ("iwahori_hecke.BernsteinAlgebra.central_element", "iwahori_hecke",
     "BernsteinAlgebra.central_element"),
    ("torus_center.orbits", "torus_center", "orbits"),
    ("torus_center.roc_decomposition_check", "torus_center",
     "roc_decomposition_check"),
    ("torus_center.invariant_dimension", "torus_center",
     "invariant_dimension"),
    ("root_datum.WeylGroup", "root_datum", "WeylGroup.__init__"),
    ("linalg.solve", "_linalg", "solve"),
    ("linalg.mat_rank", "_linalg", "mat_rank"),
    ("linalg.nullspace", "_linalg", "nullspace"),
    ("apartment.heart_condition1_check", "apartment",
     "heart_condition1_check"),
    ("apartment.key_inequality_report", "apartment", "key_inequality_report"),
    ("apartment.alcove_interior_points", "apartment",
     "alcove_interior_points"),
    ("padic_groups.iwahori_factorization_check", "padic_groups",
     "iwahori_factorization_check"),
    ("padic_groups.brute_point_count", "padic_groups", "brute_point_count"),
    ("cli.render_report", "cli", "render_report"),
)

# (metric, module, qualified names counted together)
COUNTERS = (
    ("cyclotomic.Cyc.mul.calls", "cyclotomic", ("Cyc.__mul__",)),
    ("cyclotomic.Cyc.add.calls", "cyclotomic", ("Cyc.__add__", "Cyc.__sub__")),
    ("finite_groups.FiniteGroup.inv.calls", "finite_groups",
     ("FiniteGroup.inv",)),
    ("finite_groups.FiniteGroup.conj.calls", "finite_groups",
     ("FiniteGroup.conj",)),
    ("representations.induced_representation.calls", "representations",
     ("induced_representation",)),
    ("laurent.RatFunc.ops", "laurent",
     ("RatFunc.__mul__", "RatFunc.__add__", "RatFunc.__sub__",
      "RatFunc.__truediv__")),
    ("laurent.LaurentScalar.mul.calls", "laurent", ("LaurentScalar.__mul__",)),
    ("iwahori_hecke.BernsteinAlgebra.bernstein_multiply.calls",
     "iwahori_hecke", ("BernsteinAlgebra.bernstein_multiply",)),
)


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


def _induced_key(group, sub, rep, ambient=None):
    mats = tuple((g, tuple(map(tuple, m))) for g, m in sorted(rep.matrices.items()))
    amb = None if ambient is None else tuple(sorted(ambient))
    return (group.table, tuple(sorted(sub)), rep.conductor, mats, amb)


def _count_exhaustive(tracer, args, kwargs, report) -> None:
    verified = sum(1 for _, v in report.exhaustive if v is True)
    tracer.add("padic_groups.exhaustive.verified", verified)
    tracer.add("padic_groups.exhaustive.attempted", len(report.exhaustive))


# hooks: (module, qualified name) -> f(tracer, args, kwargs, result)
HOOKS = {
    ("cyclotomic", "cyc_rank"):
        lambda t, a, k, r: t.add("cyclotomic.cyc_rank.cells", _cells(a[0])),
    ("laurent", "rat_rank"):
        lambda t, a, k, r: t.add("laurent.rat_rank.cells", _cells(a[0])),
    ("root_datum", "WeylGroup.__init__"):
        lambda t, a, k, r: t.add("root_datum.WeylGroup.elements", len(a[0])),
    ("torus_center", "orbits"):
        lambda t, a, k, r: t.add("torus_center.orbits.pairs",
                                 sum(len(o.orbit) for o in r)),
    ("padic_groups", "iwahori_factorization_check"): _count_exhaustive,
    ("representations", "induced_representation"):
        lambda t, a, k, r: t.induced_keys.add(_induced_key(*a, **k)),
}

# ratio metric -> (numerator, denominator); 0 when nothing was attempted
RATIOS = {
    "representations.induced_representation.useful_ratio":
        ("representations.induced_representation.distinct",
         "representations.induced_representation.calls"),
    "padic_groups.exhaustive.verified_ratio":
        ("padic_groups.exhaustive.verified",
         "padic_groups.exhaustive.attempted"),
}

# measured by run.py itself, not by a probe
RUN_METRICS = ("cli.import_s", "trace.overhead_s")


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, _, _ in SPANS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    for name, _, _ in COUNTERS:
        out.append((name, "count", "lower"))
    out += [("cyclotomic.cyc_rank.cells", "count", "lower"),
            ("laurent.rat_rank.cells", "count", "lower"),
            ("root_datum.WeylGroup.elements", "count", "lower"),
            ("torus_center.orbits.pairs", "count", "lower"),
            ("padic_groups.exhaustive.verified", "count", "higher"),
            ("padic_groups.exhaustive.attempted", "count", "lower"),
            ("representations.induced_representation.distinct", "count",
             "lower")]
    out += [(name, "1", "higher") for name in RATIOS]
    out += [(name, "s", "lower") for name in RUN_METRICS]
    return out


LAYER_MAP = (
    {"metrics": ["cyclotomic.cyc_matmul.calls", "cyclotomic.cyc_matmul.self_s",
                 "cyclotomic.Cyc.mul.calls", "cyclotomic.Cyc.add.calls"],
     "moves": {"wall_s": ["catalog"]}, "stays": ["hecke", "filtration"]},
    {"metrics": ["cyclotomic.cyc_rank.calls", "cyclotomic.cyc_rank.self_s",
                 "cyclotomic.cyc_rank.cells", "cyclotomic.cyc_nullspace.self_s",
                 "cyclotomic.cyc_solve.self_s"],
     "moves": {"wall_s": ["torus", "catalog"]},
     "stays": ["torus: the --check roc call"]},
    {"metrics": ["representations.from_generators.calls",
                 "representations.from_generators.self_s",
                 "representations.from_matrices.calls",
                 "representations.from_matrices.self_s"],
     "moves": {"wall_s": ["catalog"], "setup_s": ["catalog"]}, "stays": []},
    {"metrics": ["representations.induced_representation.calls",
                 "representations.induced_representation.distinct",
                 "representations.induced_representation.useful_ratio"],
     "moves": {"wall_s": ["catalog"]}, "stays": []},
    {"metrics": ["finite_groups.FiniteGroup.calls",
                 "finite_groups.FiniteGroup.self_s",
                 "finite_groups.FiniteGroup.inv.calls",
                 "finite_groups.FiniteGroup.conj.calls"],
     "moves": {"wall_s": ["catalog"], "setup_s": ["catalog"]}, "stays": []},
    {"metrics": ["clifford_lab.check_hypotheses.calls",
                 "clifford_lab.check_hypotheses.self_s",
                 "clifford_lab.maximal_stabilizer.self_s",
                 "clifford_lab.multiplicity_transfer_check.self_s",
                 "clifford_lab.center_dimension_check.self_s",
                 "clifford_lab.commutativity_check.self_s"],
     "moves": {"wall_s": ["catalog"]}, "stays": []},
    {"metrics": ["catalog.build_catalog.self_s", "catalog.evaluate_entry.calls",
                 "catalog.evaluate_entry.self_s"],
     "moves": {"wall_s": ["catalog"], "setup_s": ["catalog"]}, "stays": []},
    {"metrics": ["laurent.rat_rank.calls", "laurent.rat_rank.self_s",
                 "laurent.rat_rank.cells", "laurent.RatFunc.ops",
                 "laurent.LaurentScalar.mul.calls"],
     "moves": {"wall_s": ["hecke"]}, "stays": ["catalog", "torus"]},
    {"metrics": ["iwahori_hecke.satake_check.self_s",
                 "iwahori_hecke.BernsteinAlgebra.bernstein_multiply.calls",
                 "iwahori_hecke.BernsteinAlgebra.central_element.self_s"],
     "moves": {"wall_s": ["hecke"]}, "stays": []},
    {"metrics": ["torus_center.orbits.self_s", "torus_center.orbits.pairs",
                 "torus_center.roc_decomposition_check.calls",
                 "torus_center.roc_decomposition_check.self_s",
                 "torus_center.invariant_dimension.self_s"],
     "moves": {"wall_s": ["torus"]}, "stays": []},
    {"metrics": ["root_datum.WeylGroup.calls", "root_datum.WeylGroup.self_s",
                 "root_datum.WeylGroup.elements"],
     "moves": {"setup_s": ["hecke", "torus", "filtration"]}, "stays": []},
    {"metrics": ["linalg.solve.calls", "linalg.solve.self_s",
                 "linalg.mat_rank.self_s", "linalg.nullspace.self_s"],
     "moves": {"wall_s": ["filtration"]}, "stays": []},
    {"metrics": ["apartment.heart_condition1_check.calls",
                 "apartment.heart_condition1_check.self_s",
                 "apartment.key_inequality_report.calls",
                 "apartment.key_inequality_report.self_s",
                 "apartment.alcove_interior_points.self_s"],
     "moves": {"wall_s": ["filtration"]}, "stays": []},
    {"metrics": ["padic_groups.iwahori_factorization_check.calls",
                 "padic_groups.iwahori_factorization_check.self_s",
                 "padic_groups.brute_point_count.calls",
                 "padic_groups.brute_point_count.self_s",
                 "padic_groups.exhaustive.verified_ratio"],
     "moves": {"wall_s": ["filtration"]}, "stays": []},
    {"metrics": ["cli.import_s", "cli.render_report.self_s"],
     "moves": {"setup_s": ["catalog", "hecke", "torus", "filtration"],
               "wall_s": ["filtration"]},
     "stays": ["catalog", "hecke"]},
)


class Tracer:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.induced_keys: set = set()   # distinct induced_representation arguments

    def add(self, metric: str, n: int) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + n

    def install(self) -> None:
        for mod in MODULES:
            importlib.import_module(f"heckelab.{mod}")
        for name, mod, qual in SPANS:
            self._patch(mod, qual, self._span(name, HOOKS.get((mod, qual))))
        for metric, mod, quals in COUNTERS:
            self.counts[metric] = 0
            for qual in quals:
                self._patch(mod, qual,
                            self._counter(metric, HOOKS.get((mod, qual))))

    def _span(self, name: str, hook):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrap(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                me = len(spans)
                rec = [idx, clock(), 0.0, stack[-1]]
                spans.append(rec)
                stack.append(me)
                try:
                    result = func(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            return traced
        return wrap

    def _counter(self, metric: str, hook):
        counts = self.counts

        def wrap(func):
            @functools.wraps(func)
            def counted(*args, **kwargs):
                counts[metric] += 1
                result = func(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            return counted
        return wrap

    @staticmethod
    def _patch(mod: str, qual: str, wrap) -> None:
        """Replace the function where it is defined and at every heckelab
        module global or class attribute bound to the same object."""
        owner = importlib.import_module(f"heckelab.{mod}")
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = wrap(func)
        replacement = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
        setattr(owner, attr, replacement)
        for name, module in list(sys.modules.items()):
            if name != "heckelab" and not name.startswith("heckelab."):
                continue
            for key, value in list(vars(module).items()):
                if value is func:
                    setattr(module, key, wrapped)
                elif isinstance(value, type) and value.__module__.startswith("heckelab"):
                    for ckey, cvalue in list(vars(value).items()):
                        if cvalue is func:
                            setattr(value, ckey, wrapped)
                        elif cvalue is raw:
                            setattr(value, ckey, replacement)

    def summary(self) -> dict[str, float]:
        """Calls, self time and counts of this process."""
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        covered = [0.0] * len(self.spans)
        for idx, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (idx, start, end, _), inner in zip(self.spans, covered):
            name = self.names[idx]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - inner
        out.update(self.counts)
        out["representations.induced_representation.distinct"] = len(self.induced_keys)
        return out
