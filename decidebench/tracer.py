"""Per-layer spans taken from outside the package.

``Tracer.installed()`` replaces public functions of the entdis modules with
timing wrappers for the duration of one traced pass and restores them after.
Each wrapper sits on the name in the module that looks it up at call time
(``decide_direction`` reaches ``scan_blocks`` through ``entdis.search``, the
block scan reaches ``block_identity_prover`` through ``entdis.certify``), so
nothing under ``src/`` changes.  A name that no longer exists is recorded as
missing and the metrics fed only by missing names are reported as absent.

Every span records its parent, the innermost open span of the main thread.
Only the main thread opens spans; the witness-search thread pool calls the
penalty kernels and ``_run_restart`` from worker threads, whose calls are
attributed to the ``witness_search`` span the main thread waits in.  Kernel
calls are stored compactly (parent, start, end) because a pass makes up to a
few hundred thousand of them.

Self time of a span is its duration minus the time covered by its children.
Kernel children may overlap each other across worker threads, so their
cover is the union of their intervals: ``kernels.s`` is wall time during
which at least one kernel ran, ``kernels.busy_s`` sums the calls.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# span key -> (module, attribute) names wrapped for it
SPAN_HOOKS = {
    "decide": (("entdis", "decide"), ("entdis.search", "decide_direction")),
    "states": (("entdis.search", "transpose_set"),),
    "cover": (("entdis.search", "constraints_from_set"), ("entdis.search", "fourier_cover_prover")),
    "subspace": (("entdis.search", "hermitian_feasible_subspace"),),
    "scan": (("entdis.search", "scan_blocks"), ("entdis.certify", "block_identity_prover")),
    "verify": (("entdis.search", "verify_certificate"),),
    "witness": (("entdis", "witness_search"), ("entdis.search", "witness_search")),
    "completion": (("entdis.search", "povm_completion"),),
    "simulate": (("entdis.search", "simulate_protocol"),),
    "gpauli": (
        ("entdis.search", "to_matrix"),
        ("entdis.search", "all_indices"),
        ("entdis.states", "transpose_index"),
    ),
    "report": (("entdis", "decision_to_dict"), ("entdis.serialize", "canonical_json")),
}
KERNEL_HOOKS = (("entdis._kernels", "penalty_value"), ("entdis._kernels", "penalty_value_grad"))
RESTART_HOOK = ("entdis.search", "_run_restart")

# self-time metric -> span key
SELF_TIME_METRICS = {
    "search.decide_self_s": "decide",
    "states.transpose_s": "states",
    "certify.cover_s": "cover",
    "certify.subspace_s": "subspace",
    "certify.scan_s": "scan",
    "certify.verify_s": "verify",
    "search.witness_s": "witness",
    "search.completion_s": "completion",
    "search.simulate_s": "simulate",
    "gpauli.s": "gpauli",
    "serialize.report_s": "report",
}
# other per-layer metrics -> (unit, hooks that feed them)
COUNT_METRICS = {
    "certify.cover_hit_ratio": ("ratio", (("entdis.search", "fourier_cover_prover"),)),
    "certify.blocks_tried": ("count", (("entdis.certify", "block_identity_prover"),)),
    "certify.scan_hit_ratio": ("ratio", (("entdis.search", "scan_blocks"),)),
    "certify.verify_calls": ("count", SPAN_HOOKS["verify"]),
    "search.restarts": ("count", (RESTART_HOOK,)),
    "search.restart_success_ratio": ("ratio", (RESTART_HOOK,)),
    "kernels.value_calls": ("count", KERNEL_HOOKS[:1]),
    "kernels.grad_calls": ("count", KERNEL_HOOKS[1:]),
    "kernels.s": ("s", KERNEL_HOOKS),
    "kernels.busy_s": ("s", KERNEL_HOOKS),
    "kernels.flop_computed": ("flop", KERNEL_HOOKS),
    "kernels.bytes_computed": ("bytes", KERNEL_HOOKS),
    "search.povm_size": ("count", SPAN_HOOKS["completion"]),
    "gpauli.to_matrix_calls": ("count", (("entdis.search", "to_matrix"),)),
    "search.sim_trials": ("count", SPAN_HOOKS["simulate"]),
    "serialize.report_bytes": ("bytes", (("entdis.serialize", "canonical_json"),)),
}
# ratio metric -> (numerator counter, denominator counter)
RATIOS = {
    "certify.cover_hit_ratio": ("cover_hits", "cover_calls"),
    "certify.scan_hit_ratio": ("scan_hits", "scan_calls"),
    "search.restart_success_ratio": ("restart_successes", "restarts"),
}
COUNTERS = {
    "certify.blocks_tried": "blocks_tried",
    "certify.verify_calls": "verify_calls",
    "search.restarts": "restarts",
    "kernels.value_calls": "value_calls",
    "kernels.grad_calls": "grad_calls",
    "kernels.flop_computed": "flop",
    "kernels.bytes_computed": "bytes",
    "search.povm_size": "povm_size",
    "gpauli.to_matrix_calls": "to_matrix_calls",
    "search.sim_trials": "sim_trials",
    "serialize.report_bytes": "report_bytes",
}


def metric_units() -> dict:
    units = {name: "s" for name in SELF_TIME_METRICS}
    units.update({name: unit for name, (unit, _) in COUNT_METRICS.items()})
    return units


def kernel_work(P: int, d: int, grad: bool) -> tuple[int, int]:
    """(flop, bytes) of one penalty-kernel call, computed from array shapes.

    Counts the dense complex matvecs (8 flop per complex multiply-add) and
    the operator stacks read once; not measured with hardware counters.
    """
    if grad:
        return 16 * P * d * d + 24 * P * d + 3 * P, 32 * P * d * d + 16 * d
    return 8 * P * d * d + 8 * P * d + 3 * P, 16 * P * d * d + 16 * d


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # [key, parent index, start, end]
        self.counts = Counter()
        self.missing = set()
        self._stack = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._k_parent = array("q")
        self._k_start = array("d")
        self._k_end = array("d")

    # -- recording ---------------------------------------------------------

    def _open(self, key) -> int:
        sid = len(self.spans)
        self.spans.append([key, self._stack[-1] if self._stack else -1, perf_counter(), 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][3] = perf_counter()
        self._stack.pop()

    def _count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def _span_wrapper(self, key, attr, fn):
        observe = self._observers(fn).get(attr)

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            sid = self._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    def _observers(self, fn) -> dict:
        """Counters taken from a wrapped call's result or arguments, by function name."""
        count = self._count

        def sim_trials(result, args, kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            count("sim_trials", int(bound.arguments["trials"]))

        return {
            "fourier_cover_prover": lambda r, *_: (count("cover_calls"), count("cover_hits", r is not None)),
            "scan_blocks": lambda r, *_: (count("scan_calls"), count("scan_hits", r is not None)),
            "block_identity_prover": lambda r, *_: count("blocks_tried"),
            "verify_certificate": lambda r, *_: count("verify_calls"),
            "povm_completion": lambda r, *_: count("povm_size", 0 if r is None else len(r)),
            "to_matrix": lambda r, *_: count("to_matrix_calls"),
            "canonical_json": lambda r, *_: count("report_bytes", len(r.encode("utf-8"))),
            "simulate_protocol": sim_trials,
        }

    def _kernel_wrapper(self, fn, grad: bool):
        counter = "grad_calls" if grad else "value_calls"

        def wrapper(W, *args):
            t0 = perf_counter()
            result = fn(W, *args)
            t1 = perf_counter()
            P, d = W.shape[0], W.shape[1]
            flop, nbytes = kernel_work(P, d, grad)
            with self._lock:
                self._k_parent.append(self._stack[-1] if self._stack else -1)
                self._k_start.append(t0)
                self._k_end.append(t1)
                self.counts[counter] += 1
                self.counts["flop"] += flop
                self.counts["bytes"] += nbytes
            return result

        return wrapper

    def _restart_wrapper(self, fn):
        def wrapper(W, Wd, d, cfg, index):
            result = fn(W, Wd, d, cfg, index)
            with self._lock:
                self.counts["restarts"] += 1
                self.counts["restart_successes"] += result[0] < cfg.success_tol
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hooked name that exists; restore the originals on exit."""
        saved = []
        plan = [(key, hook) for key, hooks in SPAN_HOOKS.items() for hook in hooks]
        plan += [("kernel", hook) for hook in KERNEL_HOOKS] + [("restart", RESTART_HOOK)]
        try:
            for key, (module_name, attr) in plan:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                if key == "kernel":
                    wrapped = self._kernel_wrapper(fn, grad=attr.endswith("_grad"))
                elif key == "restart":
                    wrapped = self._restart_wrapper(fn)
                else:
                    wrapped = self._span_wrapper(key, attr, fn)
                saved.append((module, attr, fn))
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- analysis ----------------------------------------------------------

    def absent(self) -> list[str]:
        """Metrics every one of whose hooks is missing."""
        def gone(hooks):
            return all(f"{m}.{a}" in self.missing for m, a in hooks)

        names = [n for n, key in SELF_TIME_METRICS.items() if gone(SPAN_HOOKS[key])]
        names += [n for n, (_, hooks) in COUNT_METRICS.items() if gone(hooks)]
        return sorted(names)

    def summary(self) -> dict:
        """Per-layer values of this pass, plus the summed self time of all spans."""
        n = len(self.spans)
        dur = np.array([end - start for _, _, start, end in self.spans], dtype=float)
        covered = np.zeros(n + 1)  # last slot collects spans with no parent
        for sid, (_, parent, _, _) in enumerate(self.spans):
            covered[parent] += dur[sid]

        k_parent = np.array(self._k_parent, dtype=np.int64)
        k_parent[k_parent < 0] = n
        k_start = np.array(self._k_start, dtype=float)
        k_end = np.array(self._k_end, dtype=float)
        kernel_union = np.zeros(n + 1)
        if k_start.size:  # union of the kernel intervals, each gain credited to its parent
            order = np.argsort(k_start, kind="stable")
            starts, ends, parents = k_start[order], k_end[order], k_parent[order]
            reach = np.concatenate([[-np.inf], np.maximum.accumulate(ends)[:-1]])
            gain = np.maximum(0.0, ends - np.maximum(starts, reach))
            kernel_union = np.bincount(parents, weights=gain, minlength=n + 1)
        self_time = dur - covered[:n] - kernel_union[:n]

        out = {name: 0.0 for name in SELF_TIME_METRICS}
        by_key = {key: name for name, key in SELF_TIME_METRICS.items()}
        for sid, (key, _, _, _) in enumerate(self.spans):
            out[by_key[key]] += float(self_time[sid])
        out["kernels.s"] = float(kernel_union.sum())
        out["kernels.busy_s"] = float(np.sum(k_end - k_start))
        for name, counter in COUNTERS.items():
            out[name] = float(self.counts[counter])
        for name, (num, den) in RATIOS.items():
            base = self.counts[den]
            out[name] = self.counts[num] / base if base else 0.0
        accounted = float(self_time.sum() + kernel_union.sum())
        bases = {name: self.counts[den] for name, (_, den) in RATIOS.items()}
        return {"metrics": out, "accounted_s": accounted, "ratio_bases": bases}
