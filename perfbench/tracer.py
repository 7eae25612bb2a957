"""Spans around the public functions of each geoloop layer, recorded from outside.

The tracer replaces each listed function with a wrapper wherever a geoloop
module looks the name up: on its class for methods, and in every module
namespace that bound the function object by name (``trainer.toy_format_reward``,
``cli.mle_pretrain``, ...).  Nothing under ``src/`` changes.

Every span records its name, start, end, parent span and the benchmark
operation (a set-up, a train step, an eval call or a probe call) that was
current when it started.  Self time is charged event by event to the innermost
open span and the current operation, so a span's self time is its duration
minus the time its child spans cover, split exactly where the operation
changes (the ``cli.main`` span stays open across every step of a run).
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# Layer -> public names that are wrapped.  ``Class.method`` names a method.
LAYERS = {
    "ot": ("sinkhorn_divergence_with_grad", "entropic_ot", "subsample_indices",
           "output_space_ot_diag"),
    "policy": ("ToyPolicy.sample_group", "ToyPolicy.sequence_logprobs_batch",
               "ToyPolicy.multi_context_logprob", "ToyPolicy.hidden_summary",
               "ToyPolicy.hidden_summary_grad", "ToyPolicy.weighted_grad_batch",
               "ToyPolicy.next_token_distribution", "toy_format_reward",
               "warm_start", "mle_pretrain"),
    "trainer": ("Trainer.train_step", "Trainer.save_checkpoint", "load_checkpoint"),
    "mi": ("draw_shadows", "row_positive_logsoftmax", "infonce_losses", "diag_mi",
           "clean_mi_bounds", "shaping_term"),
    "rewards": ("entropy_gate", "mi_tiebreak_reward", "autoscale_update"),
    "rep_metrics": ("fit_gaussian", "frechet_distance", "covariance_spectrum",
                    "effective_dims"),
    "prob_metrics": ("probe_report", "probe_report_batch", "fr_path_stats",
                     "turning_angles", "landscape_grid"),
    "constitution": ("evaluate_principle_set", "sufficiency_index"),
    "cli": ("main",),
}

SPAN_STATS = (("calls", "count", "lower"), ("self_ms", "ms", "lower"),
              ("errors", "count", "lower"))
SOLVER_STATS = (("ot.entropic_ot.iters", "count", "lower"),
                ("ot.entropic_ot.converged_ratio", "ratio", "higher"))


def span_name(module: str, qualname: str) -> str:
    """``policy.sample_group`` for ``policy.ToyPolicy.sample_group``."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def span_names() -> list:
    return [span_name(module, q) for module, names in LAYERS.items() for q in names]


class Tracer:
    """In-memory span recorder with per-operation self time, calls and errors."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._last = perf_counter()
        self.op_kind = "other"
        self.op_id = "other-0"
        self.op_counts = defaultdict(int)
        # (operation kind, span name) -> [calls, self seconds, errors]
        self.stats = defaultdict(lambda: [0, 0.0, 0])
        # operation kind -> [solves, iterations, converged solves]
        self.solves = defaultdict(lambda: [0, 0, 0])
        # The same for every Sinkhorn loop, ``entropic_ot``'s and the probe's
        # token-index diagnostic's, which calls the solver directly.
        self.sinkhorn_loops = defaultdict(lambda: [0, 0, 0])

    def _charge(self, now: float) -> None:
        if self._stack:
            self.stats[(self.op_kind, self._stack[-1][1])][1] += now - self._last
        self._last = now

    def begin_op(self, kind: str) -> None:
        """Make a new operation of ``kind`` current; open spans continue in it."""
        self._charge(perf_counter())
        self.op_counts[kind] += 1
        self.op_kind = kind
        self.op_id = f"{kind}-{self.op_counts[kind]}"

    @contextlib.contextmanager
    def excluded(self):
        """Charge nothing for the enclosed interval (the benchmark's own work)."""
        self._charge(perf_counter())
        try:
            yield
        finally:
            self._last = perf_counter()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            tracer._charge(start)
            sid = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            kind, op = tracer.op_kind, tracer.op_id
            stat = tracer.stats[(kind, name)]
            stat[0] += 1
            tracer.spans.append(None)
            tracer._stack.append((sid, name))
            error = True
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter()
                tracer._charge(end)
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, op, name, start, end, error)
                if error:
                    stat[2] += 1
            if name == "ot.entropic_ot":
                solve = tracer.solves[kind]
                solve[0] += 1
                solve[1] += int(result["iterations"])
                solve[2] += bool(result["converged"])
            return result

        return traced

    def layer_metrics(self, kinds) -> dict:
        """Per-layer metrics, each counted per operation of the kind it ran in.

        A span in a train step is counted per step, one in a set-up per
        set-up; a function that runs in several of ``kinds`` gets the sum of
        its per-operation rates.  Operations of other kinds are left out.
        """
        out = {}
        for name in span_names():
            calls = self_s = errors = 0.0
            for kind in kinds:
                n = self.op_counts.get(kind, 0)
                if n:
                    c, s, e = self.stats.get((kind, name), (0, 0.0, 0))
                    calls, self_s, errors = calls + c / n, self_s + s / n, errors + e / n
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = 1e3 * self_s
            out[f"{name}.errors"] = errors
        solves = iters = converged = 0
        for kind in kinds:
            s, i, c = self.solves.get(kind, (0, 0, 0))
            solves, iters, converged = solves + s, iters + i, converged + c
        # With no solve (train_pre_ot, eval, probe) both read 0.
        out["ot.entropic_ot.iters"] = iters / solves if solves else 0.0
        out["ot.entropic_ot.converged_ratio"] = converged / solves if solves else 0.0
        return out

    def count_sinkhorn(self, solver):
        """Wrap ``ot._sinkhorn_potentials`` to count its loops, without a span."""
        tracer = self

        @functools.wraps(solver)
        def counted(*args, **kwargs):
            result = solver(*args, **kwargs)
            loop = tracer.sinkhorn_loops[tracer.op_kind]
            loop[0] += 1
            loop[1] += int(result[2])
            loop[2] += bool(result[3])
            return result

        return counted

    def sinkhorn_by_kind(self) -> dict:
        """{kind: {solves, iters_per_solve, converged_ratio}} of every Sinkhorn loop."""
        return {kind: {"solves": n, "iters_per_solve": iters / n, "converged_ratio": conv / n}
                for kind, (n, iters, conv) in sorted(self.sinkhorn_loops.items()) if n}

    def by_kind(self) -> dict:
        """{kind: {name: [calls, self_ms, errors]}} totals, for the detail output."""
        out = defaultdict(dict)
        for (kind, name), (c, s, e) in sorted(self.stats.items()):
            out[kind][name] = [c, round(1e3 * s, 3), e]
        return {kind: {"operations": self.op_counts.get(kind, 0), "spans": spans}
                for kind, spans in out.items()}

    def write_spans(self, path) -> None:
        t0 = self.spans[0][4] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for sid, parent, op, name, start, end, error in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start_ms": round(1e3 * (start - t0), 4),
                    "end_ms": round(1e3 * (end - t0), 4), "error": error}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every name in LAYERS where geoloop code looks it up."""
    import geoloop.cli  # noqa: F401  (loads every layer)

    ot = sys.modules["geoloop.ot"]
    ot._sinkhorn_potentials = tracer.count_sinkhorn(ot._sinkhorn_potentials)
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "geoloop" or key.startswith("geoloop.")]
    for module, names in LAYERS.items():
        home = sys.modules[f"geoloop.{module}"]
        for qualname in names:
            name = span_name(module, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(home, qualname)
            traced = tracer.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
