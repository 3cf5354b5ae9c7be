"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics computed from its spans.

``Tracer.install`` replaces module-global names inside the ``nlcs`` package
with wrappers that record one span per call: name, start, end, parent span
and the id of the op group the benchmark was running.  The names patched
are

* every function a layer module imports from another ``nlcs`` module (the
  public names through which one layer calls the next), and
* the entry points in ``ENTRY_POINTS``: functions the benchmark calls
  directly, which same-module callers also reach through the module global
  (``basis_pursuit`` from ``recover_via_linearization``, ``spark`` from
  ``check_invariance_spark``, ``evaluate`` from ``check_requirement``).

A call made through a private table or a local reference -- the
``_CONSTRUCTORS`` table in ``linearize_strongest`` -- is not intercepted and
stays in its caller's self time.

Spans of one op group are folded into per-pass sums as soon as the group
ends (``end_unit``), so memory stays flat however many ops a run makes.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
import types
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "cli",
    "experiment",
    "recovery",
    "lp",
    "sensing_properties",
    "pointwise_linearization",
    "nonlinear_maps",
    "matrix_core",
)

ENTRY_POINTS = {
    "nlcs.cli": ("main",),
    "nlcs.recovery": ("recover_via_linearization", "basis_pursuit", "l0_oracle"),
    "nlcs.sensing_properties": (
        "spark",
        "rip_constants",
        "nsp_estimate",
        "check_invariance_spark",
        "check_invariance_rip_order",
    ),
    "nlcs.pointwise_linearization": ("linearize_strongest", "certificate_errors"),
    "nlcs.nonlinear_maps": ("evaluate", "check_requirement"),
}

CERT_SPANS = {
    "pointwise_linearization.linearize_general",
    "pointwise_linearization.linearize_invertible",
    "pointwise_linearization.linearize_diagonal",
    "pointwise_linearization.linearize_permuted_diagonal",
    "pointwise_linearization.linearize_strongest",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Small facts taken from a call's arguments and result once it returns; they
# feed the count metrics.  Each must be cheap, because it runs inside the
# caller's span.
HOOKS = {
    "lp.solve_standard_form": lambda a, k, r: (r.iterations, r.status, np.shape(a[0])),
    "recovery.l0_oracle": lambda a, k, r: (
        np.shape(a[0])[1], _arg(a, k, 2, "k_max"), tuple(np.flatnonzero(r.x_hat).tolist()),
        r.solver_status,
    ),
    "sensing_properties.spark": lambda a, k, r: (np.shape(a[0]), r.spark, tuple(r.witness)),
    "sensing_properties.rip_constants": lambda a, k, r: (np.shape(a[0])[1], _arg(a, k, 1, "k")),
    "experiment.emit_reports": lambda a, k, r: tuple(r),
    **{name: (lambda a, k, r: r.type) for name in CERT_SPANS},
}


@dataclass
class PassStats:
    """Sums over the spans of one pass over the workload's inputs."""

    ops: int = 0
    op_ns: int = 0  # op time as the benchmark timed it (the share denominator)
    complete: bool = False
    spans: int = 0
    layer_self_ns: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    dur_ns: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    rip_gate_ns: int = 0
    draw_ns: int = 0
    solves: list = field(default_factory=list)  # (iterations, status, E shape)
    l0_tried: list = field(default_factory=list)
    spark_subsets: int = 0
    rip_supports: int = 0
    cert_types: Counter = field(default_factory=Counter)
    emitted: list = field(default_factory=list)  # paths written per emit_reports call

    def counts(self) -> dict:
        """The exact-count metrics of this pass; equal passes of the same
        inputs must give equal values."""
        ops = max(self.ops, 1)
        iters = [s[0] for s in self.solves]
        out = {
            "lp.iters_per_solve": sum(iters) / len(iters) if iters else 0.0,
            "lp.iters_max": float(max(iters, default=0)),
            "lp.qr_gflop_computed": (
                sum(_qr_flops(s) for s in self.solves) / len(self.solves) / 1e9
                if self.solves else 0.0
            ),
            "lp.max_iter_share": (
                sum(s[1] == "max_iter" for s in self.solves) / len(self.solves)
                if self.solves else 0.0
            ),
            "recovery.l0_supports_tried": (
                sum(self.l0_tried) / len(self.l0_tried) if self.l0_tried else 0.0
            ),
            "sensing_properties.spark_subsets": self.spark_subsets / ops,
            "sensing_properties.rip_supports": self.rip_supports / ops,
            "nonlinear_maps.evals_per_op": self.calls["nonlinear_maps.evaluate"] / ops,
            "nonlinear_maps.check_requirement_calls": (
                self.calls["nonlinear_maps.check_requirement"] / ops
            ),
            "trace.spans_per_op": self.spans / ops,
        }
        for t in (1, 2, 3, 4):
            out[f"pointwise_linearization.certs_type{t}"] = self.cert_types[t] / ops
        return out


def _qr_flops(solve) -> float:
    """Householder QR flops of one solve, computed from the factor shape:
    the solver factors diag(sqrt(x/s)) E' (2n x m) once per iteration, at
    2 M N^2 - 2 N^3 / 3 flops for an M x N factor."""
    iterations, _, (rows, cols) = solve
    big, small = cols, rows  # the factor is E transposed
    return iterations * (2.0 * big * small**2 - 2.0 * small**3 / 3.0)


def _lex_rank(subset, n: int) -> int:
    """Position of a sorted r-subset of range(n) in lexicographic order."""
    r = len(subset)
    pos, prev = 0, -1
    for i, c in enumerate(subset):
        for v in range(prev + 1, c):
            pos += math.comb(n - v - 1, r - i - 1)
        prev = c
    return pos


def _spark_subsets(shape, value: int, witness) -> int:
    """Column subsets the upward lexicographic scan examines before it can
    return ``value`` with ``witness``.  A spark above the row count is
    decided without a scan at that level, as is the empty witness."""
    m, n = shape
    full = sum(math.comb(n, r) for r in range(1, min(value - 1, m) + 1))
    if witness and value <= m:
        full += _lex_rank(witness, n) + 1
    return full


def _l0_tried(n: int, k_max: int, support, status: str) -> int:
    """Supports ``l0_oracle`` fits before returning: all smaller levels plus
    the returned support's lexicographic position in its own level, or
    every support up to ``k_max`` when nothing fits."""
    if status != "converged":
        return sum(math.comb(n, j) for j in range(1, k_max + 1))
    k = len(support)
    if k == 0:
        return 0
    return sum(math.comb(n, j) for j in range(1, k)) + _lex_rank(support, n) + 1


class Tracer:
    """Span recorder; one per traced run, installed for the traced passes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, unit, info]
        self._stack: list[int] = []
        self._unit = -1
        self._patched: list[tuple] = []
        self.passes: dict[int, PassStats] = {}

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"nlcs.{layer}")
            entry = ENTRY_POINTS.get(mod.__name__, ())
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                owner = fn.__module__ or ""
                if not owner.startswith("nlcs.") or owner.split(".")[1] not in LAYERS:
                    continue
                if owner != mod.__name__ or attr in entry:
                    name = f"{owner.split('.')[1]}.{fn.__name__}"
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, tracer._unit, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                spans[idx][5] = hook(args, kwargs, result)
            return result

        return traced

    # -- folding ----------------------------------------------------------

    def begin_unit(self, unit: int) -> None:
        self._unit = unit

    def end_unit(self, pass_idx: int, ops: int, op_ns: int) -> None:
        """Fold the spans of the op group just run into its pass's sums."""
        st = self.passes.setdefault(pass_idx, PassStats())
        st.ops += ops
        st.op_ns += op_ns
        spans = self.spans
        st.spans += len(spans)
        child = [0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, _, info) in enumerate(spans):
            dur = t1 - t0
            own = dur - child[i]
            layer = name.split(".", 1)[0]
            parent_name = spans[parent][0] if parent >= 0 else ""
            st.layer_self_ns[layer] += own
            st.calls[name] += 1
            st.dur_ns[name] += dur
            st.self_ns[name] += own
            if name == "sensing_properties.rip_constants":
                if parent_name == "recovery.recover_via_linearization":
                    st.rip_gate_ns += dur
                if info is not None:
                    st.rip_supports += math.comb(*info)
            elif name in ("matrix_core.gaussian_matrix", "matrix_core.random_sparse_signal"):
                if parent_name.startswith("experiment."):
                    st.draw_ns += dur
            elif info is None:
                continue
            elif name == "lp.solve_standard_form":
                st.solves.append(info)
            elif name == "recovery.l0_oracle":
                st.l0_tried.append(_l0_tried(*info))
            elif name == "sensing_properties.spark":
                st.spark_subsets += _spark_subsets(*info)
            elif name in CERT_SPANS and parent_name not in CERT_SPANS:
                st.cert_types[info] += 1
            elif name == "experiment.emit_reports":
                st.emitted.append(info)
        spans.clear()

    def mark_complete(self, pass_idx: int) -> None:
        self.passes[pass_idx].complete = True


def drift(passes: dict[int, PassStats]) -> dict[int, list[str]]:
    """Exact-count metrics that differ from the first traced pass in a later
    complete pass of the same inputs, by pass index."""
    complete = [i for i in sorted(passes) if passes[i].complete]
    if not complete:
        return {}
    ref = passes[complete[0]].counts()
    out = {}
    for i in complete[1:]:
        msgs = [f"{key} = {val!r}, first pass {ref[key]!r}"
                for key, val in passes[i].counts().items() if val != ref[key]]
        if msgs:
            out[i] = msgs
    return out


def layer_metrics(passes: dict[int, PassStats], untimed_ops_per_s: float) -> dict:
    """Per-layer metrics of the traced passes.  Times are averaged over
    every traced pass; exact counts come from the first traced pass; the
    tracing overhead compares the untimed rate with that of the traced
    passes after the first."""
    tot = PassStats()
    for st in passes.values():
        tot.ops += st.ops
        tot.op_ns += st.op_ns
        for name in ("layer_self_ns", "calls", "dur_ns", "self_ns"):
            getattr(tot, name).update(getattr(st, name))
        tot.rip_gate_ns += st.rip_gate_ns
        tot.draw_ns += st.draw_ns
        tot.solves.extend(st.solves)
        tot.emitted.extend(st.emitted)
    ops = max(tot.ops, 1)

    def ms(ns):
        return ns / 1e6

    def per_call(name, kind="self_ns"):
        calls = tot.calls[name]
        return ms(getattr(tot, kind)[name]) / calls if calls else 0.0

    def per_op_dur(*names):
        return ms(sum(tot.dur_ns[n] for n in names)) / ops

    def per_op_self(*names):
        return ms(sum(tot.self_ns[n] for n in names)) / ops

    iters = sum(s[0] for s in tot.solves)
    emits = tot.calls["experiment.emit_reports"]
    written = sum(os.path.getsize(p) for paths in tot.emitted for p in paths)
    first = passes[0]
    later = [st for i, st in passes.items() if i > 0]
    traced_rate = sum(st.ops for st in later) / (sum(st.op_ns for st in later) / 1e9)

    m = {
        "cli.self_ms": per_call("cli.main"),
        "experiment.loop_self_ms": per_op_self("experiment.run_experiment"),
        "experiment.emit_ms": per_call("experiment.emit_reports", "dur_ns"),
        "experiment.bytes_written": written / emits if emits else 0.0,
        "recovery.pipeline_self_ms": per_call("recovery.recover_via_linearization"),
        "recovery.bp_self_ms": per_call("recovery.basis_pursuit"),
        "recovery.rip_gate_ms": ms(tot.rip_gate_ns) / ops,
        "recovery.l0_ms": per_op_dur("recovery.l0_oracle"),
        "lp.solve_ms": per_call("lp.solve_standard_form"),
        "lp.ms_per_iter": ms(tot.self_ns["lp.solve_standard_form"]) / iters if iters else 0.0,
        "sensing_properties.spark_ms": per_op_dur("sensing_properties.spark"),
        "sensing_properties.rip_ms": per_op_dur("sensing_properties.rip_constants"),
        "sensing_properties.nsp_ms": per_op_dur("sensing_properties.nsp_estimate"),
        "pointwise_linearization.cert_ms": per_op_self(*CERT_SPANS),
        "pointwise_linearization.verify_ms": per_op_self("pointwise_linearization.certificate_errors"),
        "pointwise_linearization.classify_ms": per_call("pointwise_linearization.classify", "dur_ns"),
        "nonlinear_maps.evaluate_ms": per_op_dur("nonlinear_maps.evaluate"),
        "matrix_core.draw_ms": ms(tot.draw_ns) / ops,
        "matrix_core.rank_ms": per_op_dur("matrix_core.rank"),
        "trace.slowdown": untimed_ops_per_s / traced_rate,
        "trace.covered_share": sum(tot.layer_self_ns.values()) / tot.op_ns,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = ms(tot.layer_self_ns[layer]) / ops
        m[f"{layer}.self_share"] = tot.layer_self_ns[layer] / tot.op_ns
    m.update(first.counts())
    return m
