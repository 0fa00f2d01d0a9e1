"""Per-layer tracing from outside the library.

`Tracer.install` replaces every public module-level function of the
hexablock layers, in every module namespace that binds it, by a wrapper
that records one span (function, parent span, start, end) per call.  Spans
stay in memory; `write` stores them when the run ends and `metrics` turns
them into the per-layer figures.  `cx`, the scalar coercion called for
nearly every argument, is left unwrapped: a span around it would cost more
than the call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("numerics", "psi", "domains", "hexa", "autos", "inner", "oracles", "cli")
UNWRAPPED = {"numerics.cx"}
MEMBER_EVALS = {"psi.tetra_interior_margin", "domains.penta_classify", "psi.k_star"}
MU_STRUCTURES = ("tetra", "penta", "hexa")


def _mu_structure(args, kwargs, result):
    return kwargs.get("structure", args[1] if len(args) > 1 else "hexa")


def _psi_route(args, kwargs, result):
    return result[2]


TAGGERS = {"hexa.mu_value": _mu_structure, "hexa.psi_sup": _psi_route}
# the per-layer metrics that are times, as opposed to counts
TIME_METRICS = ([f"{layer}.self_us_per_op" for layer in LAYERS]
                + ["autos.hexa_aut_apply.us_per_op", "oracles.grid_sup_kappa.ms_per_op",
                   "inner.hexa_inner_validate.ms_per_op", "numerics.fejer_riesz.us_per_op",
                   "cli.main.self_us_per_op"]
                + [f"hexa.mu_value.{s}.us_per_call" for s in MU_STRUCTURES])


class Tracer:
    def __init__(self):
        self.names = []       # function index -> "layer.function"
        self.spans = []       # (function index, parent span or -1, t0 ns, t1 ns)
        self.tags = {}        # span index -> route or structure
        self._stack = [-1]
        self._saved = []

    def install(self):
        modules = {layer: importlib.import_module(f"hexablock.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                qual = f"{layer}.{name}"
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__ and qual not in UNWRAPPED):
                    self.names.append(qual)
                    wrappers[id(fn)] = self._wrap(fn, len(self.names) - 1,
                                                  TAGGERS.get(qual))
        namespaces = list(modules.values()) + [importlib.import_module("hexablock")]
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, fn, fid, tagger):
        spans, stack, tags = self.spans, self._stack, self.tags
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, parent, t0, t1)
            if tagger is not None:
                tags[idx] = tagger(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"functions": self.names, "spans": self.spans,
                       "tags": {str(k): v for k, v in self.tags.items()}}, fh)

    def metrics(self, n_ops: int) -> dict:
        """Per-layer calls and self time per operation, plus the named
        per-function figures.  Self time is a span minus its child spans."""
        names, spans, tags = self.names, self.spans, self.tags
        child = [0] * len(spans)
        for fid, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_ns, incl_ns = {}, {}, {}
        for idx, (fid, parent, t0, t1) in enumerate(spans):
            name = names[fid]
            layer = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            incl_ns[name] = incl_ns.get(name, 0) + t1 - t0
            self_ns[layer] = self_ns.get(layer, 0) + (t1 - t0 - child[idx])
            self_ns[name] = self_ns.get(name, 0) + (t1 - t0 - child[idx])
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls_per_op"] = sum(
                c for n, c in calls.items() if n.startswith(layer + ".")) / n_ops
            out[f"{layer}.self_us_per_op"] = self_ns.get(layer, 0) / 1e3 / n_ops
        for name in ("domains.tetra_classify", "psi.k_star", "oracles.grid_sup_kappa",
                     "domains.penta_classify", "hexa.h_member"):
            out[f"{name}.calls_per_op"] = calls.get(name, 0) / n_ops
        out["autos.hexa_aut_apply.us_per_op"] = incl_ns.get("autos.hexa_aut_apply", 0) / 1e3 / n_ops
        out["oracles.grid_sup_kappa.ms_per_op"] = incl_ns.get("oracles.grid_sup_kappa", 0) / 1e6 / n_ops
        out["inner.hexa_inner_validate.ms_per_op"] = incl_ns.get("inner.hexa_inner_validate", 0) / 1e6 / n_ops
        out["numerics.fejer_riesz.us_per_op"] = incl_ns.get("numerics.fejer_riesz", 0) / 1e3 / n_ops
        out["cli.main.self_us_per_op"] = self_ns.get("cli.main", 0) / 1e3 / n_ops
        out["hexa.psi_sup.grid_routes_per_op"] = sum(
            1 for idx, route in tags.items()
            if route == "grid" and names[spans[idx][0]] == "hexa.psi_sup") / n_ops
        mu_calls = {idx: tags.get(idx) for idx, span in enumerate(spans)
                    if names[span[0]] == "hexa.mu_value"}
        evals = sum(1 for fid, parent, _, _ in spans
                    if parent in mu_calls and names[fid] in MEMBER_EVALS)
        out["hexa.mu_value.member_evals_per_call"] = evals / len(mu_calls) if mu_calls else 0.0
        for s in MU_STRUCTURES:
            durations = [spans[idx][3] - spans[idx][2] for idx, t in mu_calls.items() if t == s]
            out[f"hexa.mu_value.{s}.us_per_call"] = (
                sum(durations) / 1e3 / len(durations) if durations else 0.0)
        return out
