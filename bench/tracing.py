"""In-memory span tracer that wraps chebdiff2d's public functions from outside.

``Tracer.install`` replaces every binding of each public module-level
function in every loaded ``chebdiff2d`` module (re-exports and
``from .x import y`` copies included) with a wrapper, plus
``CoeffGrid.restrict_to``, CoeffGrid ``+`` and ``-``, the ``differentiate``
and ``validate`` command handlers, and each entry of the validation suite's
check table.  ``uninstall`` puts the originals back.

A span is (name, parent span, operation id, start ns, end ns); spans sit in
typed arrays until the run ends.  Work counts are added at the same
boundaries by small callbacks that read argument and result shapes.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import oracle

MODULES = ("basis", "transform", "hypercross", "diffop", "model", "norms",
           "tuning", "harness", "cli")

#: One-line helpers left unwrapped: a span around them would time mostly
#: the wrapper.  Their cost lands in the calling module's self time.
UNWRAPPED = {"basis.peak_value", "hypercross.underline"}

#: The validate suite's checks, by the name each reports.
CHECK_NAMES = (
    "derivative-zeta0-resolution", "basis-gram-identity",
    "quadrature-monomial-exactness", "basis-peak-bound",
    "analyze-synthesize-roundtrip", "parseval-consistency",
    "cross-enumeration", "cross-cardinality-growth", "derivative-fd-oracle",
    "truncation-decay-analytic", "noise-lp-saturation",
    "nikolskii-explicit-bound", "lq-coefficient-bound-constant",
    "tuning-and-member-consistency",
)

# metric group -> span names whose outermost occurrences it sums
GROUPS = {
    "basis.basis_matrix": ("basis.basis_matrix",),
    "basis.eval_orthonormal": ("basis.eval_orthonormal",),
    "transform.restrict_to": ("transform.CoeffGrid.restrict_to",),
    "transform.arith": ("transform.CoeffGrid.__add__", "transform.CoeffGrid.__sub__"),
    "transform.grid_synthesize": ("transform.grid_synthesize",),
    "transform.synthesize": ("transform.synthesize",),
    "transform.analyze": ("transform.analyze",),
    "transform.read": ("transform.read_coeff_file", "transform.read_coeff_csv",
                       "transform.read_coeff_json"),
    "transform.write": ("transform.write_coeff_csv", "transform.write_coeff_json"),
    "hypercross.build_cross": ("hypercross.build_cross",),
    "hypercross.cardinality": ("hypercross.cardinality",),
    "diffop.differentiate_coeffs": ("diffop.differentiate_coeffs",),
    "diffop.build_derivative_operator": ("diffop.build_derivative_operator",),
    "model.perturb": ("model.perturb",),
    "model.make_class_member": ("model.make_class_member",),
    "norms.l2w": ("norms.l2_omega_norm",),
    "norms.sup": ("norms.sup_norm",),
    "norms.lqw": ("norms.lq_omega_norm",),
    "harness.fit_rate": ("harness.fit_rate",),
    "harness.fd_partial_t": ("harness.fd_partial_t",),
    "cli.differentiate": ("cli._cmd_differentiate",),
    "cli.validate": ("cli._cmd_validate",),
}
CALLS = ("basis.basis_matrix", "basis.eval_orthonormal", "transform.synthesize",
         "diffop.build_derivative_operator", "model.perturb", "norms.l2w",
         "norms.sup", "norms.lqw")
#: Groups also reported for the run process's own preparation of the inputs.
SETUP_GROUPS = ("model.make_class_member", "transform.write")
SELF = ("diffop.truncated_derivative", "harness.run_convergence",
        "harness.run_single")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{g}.ms" for g in GROUPS] + [f"{g}.calls" for g in CALLS]
    names += [f"{s}.self_ms" for s in SELF]
    names += [f"{m}.self_ms" for m in MODULES]
    names += ["tuning.ms"] + [f"harness.check.{c}.ms" for c in CHECK_NAMES]
    names += ["transform.restrict_to.scanned", "transform.restrict_to.kept",
              "transform.restrict_to.kept_ratio", "hypercross.cells",
              "diffop.flops", "model.perturb.distinct_ratio",
              "norms.lqw.quad_points", "trace.wall_ms", "trace.self_sum_ms",
              "trace.coverage", "trace.spans"]
    names += [f"setup.{g}.ms" for g in SETUP_GROUPS]
    return names


def unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "flop" if name.endswith("flops") else "count"


def better(name: str) -> str:
    """Shares of useful work and trace coverage go up; time and work go down."""
    return "higher" if unit(name) == "ratio" else "lower"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_op = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.cross_args: list[tuple] = []
        self._noise_seen: set = set()
        self._restore: list[tuple] = []
        self.check_label: dict[str, str] = {}

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None, new_op: bool = False):
        """Wrapper recording one span per call of ``fn`` under ``name``."""
        name_id = self._id(name)
        span_name, parent, op = self.span_name, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if new_op:
                tracer.current_op += 1
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- work counts ---------------------------------------------------

    def _count_restrict(self, args, kwargs, result):
        self.counts["restrict.scanned"] += args[0].nnz
        self.counts["restrict.kept"] += result.nnz

    def _count_cross(self, args, kwargs, result):
        self.cross_args.append((result.n, result.gamma, result.r))

    def _count_differentiate(self, args, kwargs, result):
        grid = args[0]
        r = int(kwargs.get("r", args[1] if len(args) > 1 else 1))
        k, j = grid.max_k + 1, grid.max_j + 1
        self.counts["diffop.flops"] += 2.0 * k * k * j * r

    def _count_perturb(self, args, kwargs, result):
        before = args[0].to_dense()
        after = result.to_dense()
        noise = after.copy()
        noise[: before.shape[0], : before.shape[1]] -= before
        # distinct within each outermost call (one sweep, one CLI call)
        key = (self.stack[1] if len(self.stack) > 1 else None, noise.shape,
               hashlib.blake2b(np.ascontiguousarray(noise).tobytes(),
                               digest_size=16).digest())
        if key not in self._noise_seen:
            self._noise_seen.add(key)
            self.counts["perturb.distinct"] += 1

    def _count_lq(self, args, kwargs, result):
        quad_n = kwargs.get("quad_n", args[2] if len(args) > 2 else None)
        if quad_n is None:
            quad_n = 4 * max(args[0].max_k, args[0].max_j) + 1
        self.counts["lqw.quad_points"] += float(quad_n) ** 2

    def _label_check(self, fn_name):
        def after(tracer, args, kwargs, result):
            tracer.check_label[fn_name] = result.name
        return after

    # -- installation --------------------------------------------------

    def install(self) -> None:
        pkg = sys.modules["chebdiff2d"]
        mods = {m: sys.modules[f"chebdiff2d.{m}"] for m in MODULES}
        namespaces = [vars(pkg)] + [vars(mod) for mod in mods.values()]
        counters = {
            "hypercross.build_cross": Tracer._count_cross,
            "diffop.differentiate_coeffs": Tracer._count_differentiate,
            "model.perturb": Tracer._count_perturb,
            "norms.lq_omega_norm": Tracer._count_lq,
        }
        replacements = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNWRAPPED
                        or inspect.isgeneratorfunction(fn)):
                    continue
                replacements[id(fn)] = (fn, self.wrap(
                    fn, name, counters.get(name), new_op=(name == "model.perturb")))
        for ns in namespaces:
            for attr, value in list(ns.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((ns, attr, value))
                    ns[attr] = hit[1]

        grid_cls = mods["transform"].CoeffGrid
        for attr, after in (("restrict_to", Tracer._count_restrict),
                            ("__add__", None), ("__sub__", None)):
            fn = grid_cls.__dict__[attr]
            self._restore.append((grid_cls, attr, fn))
            setattr(grid_cls, attr, self.wrap(fn, f"transform.CoeffGrid.{attr}", after))

        cli = vars(mods["cli"])
        for attr in ("_cmd_differentiate", "_cmd_validate"):
            self._restore.append((cli, attr, cli[attr]))
            cli[attr] = self.wrap(cli[attr], f"cli.{attr}")

        harness = vars(mods["harness"])
        checks = harness["_CHECKS"]
        self._restore.append((harness, "_CHECKS", checks))
        harness["_CHECKS"] = tuple(
            self.wrap(fn, f"harness.check:{fn.__name__}",
                      self._label_check(fn.__name__)) for fn in checks)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._restore.clear()

    # -- output --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write all spans as ``.npz`` arrays plus the span-name table."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())

    def metrics(self, wall_s: float, passes: int) -> dict[str, float]:
        """Per-layer metrics per round from the recorded spans and counts."""
        spans = self.arrays()
        name, parent = spans["name"], spans["parent"]
        dur = (spans["end_ns"] - spans["start_ns"]).astype(float) / 1e6
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        ids = {n: i for i, n in enumerate(self.names)}

        def ids_of(names):
            return np.array([ids[n] for n in names if n in ids], dtype=np.int32)

        def select(names):
            return np.isin(name, ids_of(names))

        def outer_total(names):
            want = ids_of(names)
            return float(dur[np.isin(name, want) & ~np.isin(parent_name, want)].sum())

        per = 1.0 / max(passes, 1)
        out = {}
        for group, members in GROUPS.items():
            out[f"{group}.ms"] = outer_total(members) * per
        for group in CALLS:
            out[f"{group}.calls"] = float(select(GROUPS[group]).sum()) * per
        for span in SELF:
            out[f"{span}.self_ms"] = float(self_ms[select([span])].sum()) * per
        for mod in MODULES:
            members = [n for n in self.names if n.split(".")[0] == mod]
            out[f"{mod}.self_ms"] = float(self_ms[select(members)].sum()) * per
        out["tuning.ms"] = outer_total([n for n in self.names
                                        if n.startswith("tuning.")]) * per
        for fn_name, label in self.check_label.items():
            if label in CHECK_NAMES:
                out[f"harness.check.{label}.ms"] = outer_total(
                    [f"harness.check:{fn_name}"]) * per
        for label in CHECK_NAMES:
            out.setdefault(f"harness.check.{label}.ms", 0.0)

        scanned = self.counts["restrict.scanned"]
        calls = float(select(GROUPS["model.perturb"]).sum())
        out["transform.restrict_to.scanned"] = scanned * per
        out["transform.restrict_to.kept"] = self.counts["restrict.kept"] * per
        out["transform.restrict_to.kept_ratio"] = (
            self.counts["restrict.kept"] / scanned if scanned else 0.0)
        cells = {args: oracle.cross_size(*args) for args in set(self.cross_args)}
        out["hypercross.cells"] = sum(cells[args] for args in self.cross_args) * per
        out["diffop.flops"] = self.counts["diffop.flops"] * per
        out["model.perturb.distinct_ratio"] = (
            self.counts["perturb.distinct"] / calls if calls else 0.0)
        out["norms.lqw.quad_points"] = self.counts["lqw.quad_points"] * per
        out["trace.wall_ms"] = wall_s * 1e3 * per
        out["trace.self_sum_ms"] = float(self_ms.sum()) * per
        out["trace.coverage"] = float(self_ms.sum()) / (wall_s * 1e3) if wall_s else 0.0
        out["trace.spans"] = len(dur) * per
        return out
