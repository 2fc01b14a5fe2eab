"""Per-layer tracing for the benchmark's traced rounds.

The tracer wraps the program's public entry points from outside: each
wrapper replaces every binding of the function in every simplexpoly
module (for instance both simplex3d.simplex_poly_raw and
quadrature.simplex_poly_raw), and methods are replaced on their class.

- Layers above ratpoly record spans (name, start, end, parent span) in
  memory; they are written out when the round ends.
- ratpoly methods are called far too often for single spans, so they add
  to counters and self time only.
- Self time of a call is its duration minus the time of the traced calls
  made inside it.  The tracer's own bookkeeping is charged to no layer.
- Pool workers forked by sweeps start with empty counters, keep no spans,
  and write their counters to a file after every chunk; the parent adds
  them up when sweeps.run_tasks returns.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import resource
import sys
import time
from collections import defaultdict

perf = time.perf_counter

RATPOLY_OPS = ("mul", "add", "scale", "diff", "div_exact", "eq")
FAMILIES = {
    "jacobi1d": {
        "build": ("shifted_jacobi_raw",),
        "verify": ("verify_ladder", "verify_second_order_1d"),
    },
    "triangle2d": {
        "build": ("triangle_poly_raw", "classical_triangle_poly_raw",
                  "classical_jacobi_shifted", "monic_triangle"),
        "verify": ("verify_m_relation", "verify_second_order_m",
                   "verify_d0_reduction", "pde_residual"),
    },
    "simplex3d": {
        "build": ("simplex_poly_raw", "classical_simplex_poly_raw", "monic_simplex"),
        "verify": ("verify_theorem1", "verify_second_order_3d", "verify_reduction_ab0",
                   "pde_residual_3d", "verify_three_term", "verify_corollary_derivatives",
                   "verify_corollary_weighted", "verify_corollary_multiplication",
                   "connect_alpha", "connect_general"),
    },
}
SPECIAL = ("pochhammer", "gamma_ratio", "factorial", "hyper2f1_terminating", "hyper3f2_unit")


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _nterms(poly) -> int:
    return len(poly.terms())


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in poly.terms()),
        default=0,
    )


class Tracer:
    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.keep_spans = True
        self.in_worker = False
        self._patches = []
        self._reset()

    def _reset(self):
        self.spans = []
        self.stack = [-1]
        self.child = [0.0]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(int)
        self.seen = defaultdict(set)

    def _after_fork(self):
        self._reset()
        self.keep_spans = False
        self.in_worker = True

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, label, fn, span=True, before=None, after=None):
        """A traced stand-in for fn, counted under `name` (the layer metric)
        and, for spans, labelled `label` (the function)."""
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf()
            if before is not None:
                before(args, kwargs)
            sid = -1
            if span and tr.keep_spans:
                sid = len(tr.spans)
                tr.spans.append(None)
            tr.stack.append(sid)
            tr.child.append(0.0)
            tr.depth[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tr.stack.pop()
                inner = tr.child.pop()
                tr.depth[name] -= 1
                tr.calls[name] += 1
                tr.self_s[name] += t1 - t0 - inner
                if not tr.depth[name]:
                    tr.total_s[name] += t1 - t0
                if sid >= 0:
                    tr.spans[sid] = (label, t0, t1, tr.stack[-1])
                tr.child[-1] += perf() - start
            if after is not None:
                t2 = perf()
                after(args, kwargs, result)
                tr.child[-1] += perf() - t2
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, modules, fn, new):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, new)

    def _wrap_functions(self, modules, module, names, layer, repeats=False, **hooks):
        for fname in names:
            fn = getattr(module, fname, None)
            if fn is None:
                print(f"tracer: {module.__name__}.{fname} not found", file=sys.stderr)
                continue
            label = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
            if repeats:
                hooks["before"] = self._repeat(layer, label)
            self._replace_everywhere(modules, fn, self.wrap(layer, label, fn, **hooks))

    # -- hooks --------------------------------------------------------------

    def _poly_stats(self, args, kwargs, result):
        n = _nterms(result)
        if n > self.maxima["ratpoly.max_terms"]:
            self.maxima["ratpoly.max_terms"] = n
        bits = _coeff_bits(result)
        if bits > self.maxima["ratpoly.max_coeff_bits"]:
            self.maxima["ratpoly.max_coeff_bits"] = bits

    def _repeat(self, layer, label):
        def before(args, kwargs):
            key = (label, args, tuple(sorted(kwargs.items())))
            if key in self.seen[layer]:
                self.counts[layer + ".repeats"] += 1
            else:
                self.seen[layer].add(key)
        return before

    # -- installation -------------------------------------------------------

    def install(self, prog):
        import simplexpoly
        from simplexpoly import operators, ratpoly, special

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "simplexpoly" or n.startswith("simplexpoly.")]
        mpoly = ratpoly.MPoly
        stats = self._poly_stats

        def pairs(args, kwargs):
            self.counts["ratpoly.mul.term_pairs"] += _nterms(args[0]) * _nterms(args[1])

        mul = self.wrap("ratpoly.mul", None, mpoly.__mul__, span=False, before=pairs, after=stats)
        plain_mul = mpoly.__mul__

        def mul_dispatch(p, q):
            # A scalar factor goes on to scale, which is counted there.
            return mul(p, q) if isinstance(q, mpoly) else plain_mul(p, q)

        self._replace(mpoly, "__mul__", functools.wraps(plain_mul)(mul_dispatch))
        self._replace(mpoly, "__rmul__", functools.wraps(plain_mul)(mul_dispatch))
        add = self.wrap("ratpoly.add", None, mpoly.__add__, span=False, after=stats)
        self._replace(mpoly, "__add__", add)
        self._replace(mpoly, "__radd__", add)
        for op in ("scale", "diff", "div_exact"):
            self._replace(mpoly, op, self.wrap(
                f"ratpoly.{op}", None, getattr(mpoly, op), span=False, after=stats))
        self._replace(mpoly, "__eq__", self.wrap("ratpoly.eq", None, mpoly.__eq__, span=False))

        def terms(args, kwargs):
            self.counts["ratpoly.eval_float.terms"] += _nterms(args[0])

        self._replace(mpoly, "eval_float", self.wrap(
            "ratpoly.eval_float", None, mpoly.eval_float, span=False, before=terms))

        self._wrap_functions(modules, special, SPECIAL, "special")
        for fam, parts in FAMILIES.items():
            module = getattr(simplexpoly, fam)
            self._wrap_functions(modules, module, parts["build"], f"{fam}.build",
                                 repeats=True)
            self._wrap_functions(modules, module, parts["verify"], f"{fam}.verify")
        expansion = simplexpoly.simplex3d.ConnectionExpansion
        self._replace(expansion, "reassemble", self.wrap(
            "simplex3d.verify", "simplex3d.ConnectionExpansion.reassemble",
            expansion.reassemble))

        self._replace(operators.DiffOperator, "apply", self.wrap(
            "operators.apply", "operators.DiffOperator.apply", operators.DiffOperator.apply))
        self._wrap_functions(modules, operators, ("report_equality",), "operators.compare")

        quadrature = prog["quadrature"]
        self._wrap_functions(modules, quadrature,
                             ("gauss_jacobi_01", "tetra_rule", "triangle_rule"),
                             "quadrature.rule")

        def flops(args, kwargs, result, dim=3):
            idxs, gram = result
            rule = kwargs.get("rule", args[2] if len(args) > 2 else None)
            if rule is not None:
                nodes = len(rule.weights)
            else:
                nodes = (kwargs.get("points") or args[0] + 1) ** dim
            self.counts["quadrature.gram.flops"] += 2 * len(idxs) ** 2 * nodes

        self._wrap_functions(modules, quadrature, ("gram_matrix",), "quadrature.gram",
                             after=flops)
        self._wrap_functions(modules, quadrature, ("gram_matrix_triangle",), "quadrature.gram",
                             after=functools.partial(flops, dim=2))

        sweeps = prog["sweeps"]
        self._wrap_functions(modules, sweeps, ("run_task",), "sweeps.run_task")
        self._wrap_functions(modules, sweeps, ("run_suite",), "sweeps.run_suite")
        self._wrap_functions(modules, sweeps, ("load_config",), "sweeps.load_config")

        def report_bytes(args, kwargs, result):
            self.counts["sweeps.report_bytes"] += os.path.getsize(args[0])

        self._wrap_functions(modules, sweeps, ("write_report",), "sweeps.write_report",
                             after=report_bytes)
        self._wrap_run_tasks(modules, sweeps)
        self._wrap_functions(modules, prog["cli"], ("cmd_verify",), "cli.verify")
        os.register_at_fork(after_in_child=self._after_fork)

    def _wrap_run_tasks(self, modules, sweeps):
        run_tasks = sweeps.run_tasks
        traced = self.wrap("sweeps.run_tasks", "sweeps.run_tasks", run_tasks)

        @functools.wraps(run_tasks)
        def measured(*args, **kwargs):
            cpu0, kids0, wall0 = time.process_time(), _children_cpu(), perf()
            try:
                return traced(*args, **kwargs)
            finally:
                cpu = time.process_time() - cpu0
                self.counts["sweeps.parent_cpu_s"] += cpu
                self.counts["sweeps.worker_cpu_s"] += _children_cpu() - kids0
                self.counts["sweeps.parent_wait_s"] += perf() - wall0 - cpu
                self._merge_workers()

        self._replace_everywhere(modules, run_tasks, measured)
        chunk = getattr(sweeps, "_run_chunk", None)
        if chunk is None:
            return

        @functools.wraps(chunk)
        def counted_chunk(tasks):
            try:
                return chunk(tasks)
            finally:
                if self.in_worker:
                    self.counts["sweeps.pool_calls"] += 1
                    self._dump_worker()

        self._replace(sweeps, "_run_chunk", counted_chunk)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
        self.keep_spans = False

    # -- worker counters ----------------------------------------------------

    def _aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def _dump_worker(self):
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self._aggregates(), fh)
        os.replace(path + ".tmp", path)

    def _merge_workers(self):
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as fh:
                part = json.load(fh)
            os.remove(path)
            for key in ("calls", "self_s", "total_s", "counts"):
                mine = getattr(self, key)
                for name, value in part[key].items():
                    mine[name] += value
            for name, value in part["maxima"].items():
                self.maxima[name] = max(self.maxima[name], value)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        m = {}
        for op in RATPOLY_OPS:
            m[f"ratpoly.{op}.calls"] = self.calls[f"ratpoly.{op}"]
            m[f"ratpoly.{op}.self_s"] = self.self_s[f"ratpoly.{op}"]
        m["ratpoly.mul.term_pairs"] = self.counts["ratpoly.mul.term_pairs"]
        m["ratpoly.eval_float.self_s"] = self.self_s["ratpoly.eval_float"]
        m["ratpoly.eval_float.terms"] = self.counts["ratpoly.eval_float.terms"]
        m["ratpoly.max_terms"] = self.maxima["ratpoly.max_terms"]
        m["ratpoly.max_coeff_bits"] = self.maxima["ratpoly.max_coeff_bits"]
        m["special.self_s"] = self.self_s["special"]
        for fam in FAMILIES:
            calls = self.calls[f"{fam}.build"]
            m[f"{fam}.build.calls"] = calls
            m[f"{fam}.build.self_s"] = self.self_s[f"{fam}.build"]
            m[f"{fam}.build.repeat_share"] = (
                self.counts[f"{fam}.build.repeats"] / calls if calls else 0.0
            )
            m[f"{fam}.verify.self_s"] = self.self_s[f"{fam}.verify"]
        m["operators.apply.calls"] = self.calls["operators.apply"]
        m["operators.apply.total_s"] = self.total_s["operators.apply"]
        m["operators.compare.total_s"] = self.total_s["operators.compare"]
        m["quadrature.rule.total_s"] = self.total_s["quadrature.rule"]
        m["quadrature.gram.self_s"] = self.self_s["quadrature.gram"]
        m["quadrature.gram.flops"] = self.counts["quadrature.gram.flops"]
        m["sweeps.tasks"] = self.calls["sweeps.run_task"]
        m["sweeps.run_task.total_s"] = self.total_s["sweeps.run_task"]
        m["sweeps.write_report.total_s"] = self.total_s["sweeps.write_report"]
        m["sweeps.report_bytes"] = self.counts["sweeps.report_bytes"]
        for key in ("parent_cpu_s", "worker_cpu_s", "parent_wait_s", "pool_calls"):
            m[f"sweeps.{key}"] = self.counts[f"sweeps.{key}"]
        m["cli.verify.self_s"] = self.self_s["cli.verify"]
        return m

    def write_spans(self, path: str, origin: float):
        labels = {}
        rows = []
        for label, t0, t1, parent in self.spans:
            lid = labels.setdefault(label, len(labels))
            rows.append([lid, round(t0 - origin, 7), round(t1 - origin, 7), parent])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": list(labels), "columns": ["label", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
