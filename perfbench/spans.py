"""Span recorder for the traced benchmark run.

Wraps public functions of the `stripscat` package from outside: every
module attribute (and class attribute, for methods) that holds a listed
function is replaced by a wrapper that records one span per call:
``[name, start, end, parent, points]``.  The program runs serially, so a
span's self time is its duration minus the durations of its direct
children.  Nothing inside `src/` is changed; the wrappers exist only in
the traced worker process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np


def _arg_size(i):
    return lambda *args, **kwargs: int(np.size(args[i]))


def _field_size(*args, **kwargs):
    return int(np.broadcast(np.asarray(args[2]), np.asarray(args[3])).size)


# (module, attribute path, span name, points extractor)
TARGETS = [
    ("kernels", "KernelExpansion.__init__", "kernels.expansion_build", None),
    ("kernels", "kernel_expansion", "kernels.kernel_expansion", None),
    ("kernels", "hyper_kernel", "kernels.hyper_kernel", _arg_size(1)),
    ("kernels", "single_kernel", "kernels.single_kernel", _arg_size(1)),
    ("bie", "solve_antisymmetric", "bie.solve_antisymmetric", None),
    ("bie", "solve_symmetric", "bie.solve_symmetric", None),
    ("bie", "boundary_residual", "bie.boundary_residual", None),
    ("bie", "off_strip_trace", "bie.off_strip_trace", _arg_size(2)),
    ("bie", "off_strip_normal_derivative", "bie.off_strip_normal_derivative", _arg_size(2)),
    ("bie", "scattered_field", "bie.scattered_field", _field_size),
    ("spectral", "SpectralBundle.f_plus", "spectral.f_plus", _arg_size(1)),
    ("spectral", "SpectralBundle.f_minus", "spectral.f_minus", _arg_size(1)),
    ("spectral", "SpectralBundle.f0_tilde", "spectral.f0_tilde", _arg_size(1)),
    ("spectral", "energy_balance", "spectral.energy_balance", None),
    ("edge", "extract_c", "edge.extract_c", None),
    ("edge", "extract_d", "edge.extract_d", None),
    ("edge", "local_expansion_fit", "edge.local_expansion_fit", None),
    ("rhstructure", "JumpMatrix.__call__", "rhstructure.JumpMatrix", None),
    ("rhstructure", "JumpMatrix.det", "rhstructure.JumpMatrix.det", None),
    ("cli", "main", "cli.main", None),
    ("verify", "check_self_convergence", "verify.self_convergence", None),
    ("verify", "check_functional_equation", "verify.functional_equation", None),
    ("verify", "check_embedding", "verify.embedding", None),
    ("verify", "check_edge_antisym", "verify.edge", None),
    ("verify", "check_edge_sym", "verify.edge", None),
    ("verify", "check_continuation", "verify.continuation", None),
    ("verify", "check_energy", "verify.energy", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    def _wrap(self, name, fn, points):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    points(*args, **kwargs) if points else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if inspect.isgenerator(out):   # the check_* generators do their work when drained
                    out = list(out)
                return out
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self):
        """Wrap every target at each name its callers look it up by."""
        owners = {name: importlib.import_module(f"stripscat.{name}")
                  for name in {t[0] for t in TARGETS}}
        rhstructure = owners["rhstructure"]
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "stripscat" or n.startswith("stripscat.")]
        targets = list(TARGETS)
        # every public function rhstructure defines counts toward rhstructure.self_s
        for attr, obj in vars(rhstructure).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == rhstructure.__name__):
                targets.append(("rhstructure", attr, f"rhstructure.{attr}", None))
        for modname, path, name, points in targets:
            mod = owners[modname]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(name, fn, points)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)
        if self.missing:
            print("trace: not found, reads 0: " + ", ".join(self.missing), file=sys.stderr)

    def table(self):
        """Per span name: calls, points, self seconds, total seconds."""
        child = [0.0] * len(self.spans)
        build_under = set()
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
                if name == "kernels.expansion_build":
                    build_under.add(parent)
        rows = {}
        for i, (name, t0, t1, parent, pts) in enumerate(self.spans):
            r = rows.setdefault(name, {"calls": 0, "points": 0, "self_s": 0.0,
                                       "total_s": 0.0, "hits": 0})
            r["calls"] += 1
            r["points"] += pts
            r["self_s"] += (t1 - t0) - child[i]
            r["total_s"] += t1 - t0
            if name == "kernels.kernel_expansion" and i not in build_under:
                r["hits"] += 1
        return rows


def layer_metrics(rows, passes, items_per_s):
    """The per-layer metrics of BENCHMARK.json, per pass over the item list."""
    def get(names, key):
        return sum(rows.get(n, {}).get(key, 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    rh = [n for n in rows if n.startswith("rhstructure.")]
    offstrip = ["bie.off_strip_trace", "bie.off_strip_normal_derivative"]
    halfline = ["spectral.f_plus", "spectral.f_minus"]
    hankel = ["kernels.hyper_kernel", "kernels.single_kernel"]
    solves = ["bie.solve_antisymmetric", "bie.solve_symmetric"]
    edge_x = ["edge.extract_c", "edge.extract_d"]
    per = 1.0 / passes
    m = {
        "kernels.expansion_builds": (get(["kernels.expansion_build"], "calls") * per, "count"),
        "kernels.expansion_s": (get(["kernels.expansion_build"], "self_s") * per, "s"),
        "kernels.expansion_hit_ratio": (ratio(get(["kernels.kernel_expansion"], "hits"),
                                              get(["kernels.kernel_expansion"], "calls")), "ratio"),
        "kernels.hankel_points": (get(hankel, "points") * per, "count"),
        "kernels.hankel_s": (get(hankel, "self_s") * per, "s"),
        "bie.solves": (get(solves, "calls") * per, "count"),
        "bie.solve_s": (get(solves, "self_s") * per, "s"),
        "bie.residual_s": (get(["bie.boundary_residual"], "self_s") * per, "s"),
        "bie.offstrip_points": (get(offstrip, "points") * per, "count"),
        "bie.offstrip_s": (get(offstrip, "self_s") * per, "s"),
        "bie.field_points": (get(["bie.scattered_field"], "points") * per, "count"),
        "bie.field_s": (get(["bie.scattered_field"], "self_s") * per, "s"),
        "spectral.halfline_k": (get(halfline, "points") * per, "count"),
        "spectral.halfline_s": (get(halfline, "self_s") * per, "s"),
        # two off-strip calls (x > a and x < -a) per bank built
        "spectral.bank_hit_ratio": (ratio(get(halfline, "calls") - get(offstrip, "calls") / 2,
                                          get(halfline, "calls")), "ratio"),
        "spectral.transform_k": (get(["spectral.f0_tilde"], "points") * per, "count"),
        "spectral.transform_s": (get(["spectral.f0_tilde"], "self_s") * per, "s"),
        "spectral.energy_balance_calls": (get(["spectral.energy_balance"], "calls") * per, "count"),
        "edge.extract_s": (get(edge_x, "self_s") * per, "s"),
        "edge.fit_s": (get(["edge.local_expansion_fit"], "self_s") * per, "s"),
        "rhstructure.self_s": (get(rh, "self_s") * per, "s"),
        "cli.self_s": (get(["cli.main"], "self_s") * per, "s"),
    }
    for check in ("self_convergence", "functional_equation", "embedding", "edge",
                  "continuation", "energy"):
        m[f"verify.{check}_s"] = (get([f"verify.{check}"], "total_s") * per, "s")
    m["trace.items_per_s"] = (items_per_s, "1/s")
    return m
