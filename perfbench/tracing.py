"""Span tracing for the per-layer metrics, installed from outside the package.

Every public function of each chaingroup module, and the public methods of
the classes those modules define, is replaced by a wrapper that records a
span (request, name, start, end, parent). This works because the modules
call their neighbours through the module object or their own globals, so
replacing the module attribute intercepts the internal calls as well.

A span's self time is its duration minus the time its child spans cover.
A key's busy time is the time during which at least one span of that key is
open, so nested calls of one layer are not counted twice. Each span counts
under three keys: its full name ("intmat.mat_mul"), its layer ("intmat"),
and a group when one is defined ("intmat.elim").

Spans are kept in memory (at most MAX_SPANS of them; the aggregates count
all) and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

# module -> layer; _kernel_py and _speedups are both the "kernel" layer and
# are reached through chaingroup.kernel's attributes.
LAYERS = {
    "chaingroup.cli": "cli",
    "chaingroup.braids": "braids",
    "chaingroup.oracle": "oracle",
    "chaingroup.kernel": "kernel",
    "chaingroup.homs": "homs",
    "chaingroup.homology": "homology",
    "chaingroup.intmat": "intmat",
    "chaingroup.finite": "finite",
    "chaingroup.graphs": "graphs",
    "chaingroup.riemann_hurwitz": "riemann_hurwitz",
}
KERNEL_SOURCES = ("chaingroup._kernel_py", "chaingroup._speedups")
GROUPS = {
    "intmat.rank": "intmat.elim",
    "intmat.column_space_basis": "intmat.elim",
    "intmat.intersect_spans": "intmat.elim",
    "intmat.kernel_basis": "intmat.elim",
}
# Dunder methods that are operations on values rather than protocol glue.
TRACED_DUNDERS = ("__post_init__", "__mul__", "__pow__")
MAX_SPANS = 200_000


def _bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    """In-memory span store with per-key aggregates and layer counters."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.request = -1
        self.names: list[str] = []
        self.span_req = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_total = 0
        self.stack: list[list] = []  # [span index or -1, child seconds]
        self.depth: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.busy_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans --

    def _wrap(self, fn, name: str, hook=None):
        layer = name.split(".", 1)[0]
        keys = (name, layer, GROUPS[name]) if name in GROUPS else (name, layer)
        name_id = len(self.names)
        self.names.append(name)
        for k in keys:
            self.calls.setdefault(k, 0)
            self.errors.setdefault(k, 0)
            self.self_s.setdefault(k, 0.0)
            self.busy_s.setdefault(k, 0.0)
            self.depth.setdefault(k, 0)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            idx = -1
            if tracer.spans_total < MAX_SPANS:
                idx = tracer.spans_total
                tracer.span_req.append(tracer.request)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            tracer.spans_total += 1
            frame = [idx, 0.0]
            stack.append(frame)
            depth = tracer.depth
            for k in keys:
                depth[k] += 1
            ok = False
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = tracer.clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    tracer.span_start[idx] = start
                    tracer.span_end[idx] = end
                for k in keys:
                    depth[k] -= 1
                    tracer.calls[k] += 1
                    tracer.self_s[k] += own
                    if depth[k] == 0:
                        tracer.busy_s[k] += dur
                    if not ok:
                        tracer.errors[k] += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the traced modules."""
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", None)
                if inspect.isfunction(obj) or inspect.isbuiltin(obj):
                    if home == modname or (layer == "kernel" and home in KERNEL_SOURCES):
                        name = f"{layer}.{attr}"
                        self._patch(mod, attr, self._wrap(obj, name, HOOKS.get(name)))
                elif inspect.isclass(obj) and home == modname:
                    self._install_class(obj, f"{layer}.{attr}")

    def _install_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    # ----------------------------------------------------------- output --

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "self_s": dict(self.self_s),
            "busy_s": dict(self.busy_s),
            "counters": dict(self.counters),
            "spans_total": self.spans_total,
        }

    def spans(self) -> list[tuple]:
        """Stored spans as (request, name, start, end, parent index)."""
        return [
            (self.span_req[i], self.names[self.span_name[i]], self.span_start[i],
             self.span_end[i], self.span_parent[i])
            for i in range(len(self.span_start))
        ]


def _kernel_hook(tr: Tracer, args, result) -> None:
    tr.count("kernel.letters_in", len(args[1]))
    tr.count("kernel.image_letters_out", sum(len(w) for w in result))


def _extract_hook(tr: Tracer, args, result) -> None:
    label = {"CyclicVerdict": "cyclic", "NotRecognized": "not_recognized"}
    tr.count("homology.verdicts." + label.get(type(result).__name__, "triple"), 1)


def _matrix_hook(tr: Tracer, args, result) -> None:
    if result is not None:
        tr.maximum("intmat.max_entry_bits", _bits(result))


def _snf_hook(tr: Tracer, args, result) -> None:
    tr.maximum("finite.snf.max_factor_bits", max((f.bit_length() for f in result.factors), default=0))


HOOKS = {
    "kernel.apply_letters": _kernel_hook,
    "homology.extract_triple": _extract_hook,
    "intmat.mat_mul": _matrix_hook,
    "intmat.int_inverse": _matrix_hook,
    "finite.smith_normal_form": _snf_hook,
    "finite.enum_perm_reps": lambda tr, a, r: tr.count("finite.perm_search.reps_out", len(r)),
    "graphs.brute_enumerate": lambda tr, a, r: tr.count("graphs.brute.classes_out", len(r)),
}


def merge(into: dict, part: dict) -> None:
    """Add one process's aggregates to a running total."""
    for field in ("calls", "errors", "self_s", "busy_s"):
        dst = into.setdefault(field, {})
        for k, v in part[field].items():
            dst[k] = dst.get(k, 0) + v
    dst = into.setdefault("counters", {})
    for k, v in part["counters"].items():
        if k.endswith("_bits"):
            dst[k] = max(dst.get(k, 0), v)
        else:
            dst[k] = dst.get(k, 0) + v
    into["spans_total"] = into.get("spans_total", 0) + part["spans_total"]


def layer_metrics(agg: dict, queries: int) -> dict[str, float]:
    """The per-layer metrics, from merged aggregates of a run of queries."""
    calls, self_s, busy = agg.get("calls", {}), agg.get("self_s", {}), agg.get("busy_s", {})
    errors, ctr = agg.get("errors", {}), agg.get("counters", {})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    kernel_busy = busy.get("kernel.apply_letters", 0.0)
    letters = ctr.get("kernel.letters_in", 0)
    checked = calls.get("homs.BraidHom.checked", 0)
    canon = calls.get("graphs.canonical_key", 0)
    return {
        "braids.calls": calls.get("braids", 0),
        "braids.busy_s": busy.get("braids", 0.0),
        "oracle.calls": calls.get("oracle", 0),
        "oracle.self_s": self_s.get("oracle", 0.0),
        "oracle.is_identity_per_query": ratio(calls.get("oracle.is_identity", 0), queries),
        "kernel.calls": calls.get("kernel", 0),
        "kernel.busy_s": busy.get("kernel", 0.0),
        "kernel.letters_in": letters,
        "kernel.ns_per_letter": ratio(kernel_busy * 1e9, letters),
        "kernel.image_letters_out": ctr.get("kernel.image_letters_out", 0),
        "homs.checked_calls": checked,
        "homs.checked_ok_ratio": ratio(checked - errors.get("homs.BraidHom.checked", 0), checked),
        "homs.self_s": self_s.get("homs", 0.0),
        "homology.extract_triple.calls": calls.get("homology.extract_triple", 0),
        "homology.extract_triple.self_s": self_s.get("homology.extract_triple", 0.0),
        "homology.monodromy_rep.self_s": self_s.get("homology.monodromy_rep", 0.0),
        "homology.chain_product_square.self_s": self_s.get("homology.chain_product_square", 0.0),
        "homology.verdicts.triple": ctr.get("homology.verdicts.triple", 0),
        "homology.verdicts.not_recognized": ctr.get("homology.verdicts.not_recognized", 0),
        "homology.verdicts.cyclic": ctr.get("homology.verdicts.cyclic", 0),
        "intmat.mat_mul.calls": calls.get("intmat.mat_mul", 0),
        "intmat.mat_mul.busy_s": busy.get("intmat.mat_mul", 0.0),
        "intmat.int_inverse.calls": calls.get("intmat.int_inverse", 0),
        "intmat.int_inverse.busy_s": busy.get("intmat.int_inverse", 0.0),
        "intmat.elim.busy_s": busy.get("intmat.elim", 0.0),
        "intmat.max_entry_bits": ctr.get("intmat.max_entry_bits", 0),
        "finite.snf.calls": calls.get("finite.smith_normal_form", 0),
        "finite.snf.busy_s": busy.get("finite.smith_normal_form", 0.0),
        "finite.snf.max_factor_bits": ctr.get("finite.snf.max_factor_bits", 0),
        "finite.perm_search.calls": calls.get("finite.enum_perm_reps", 0),
        "finite.perm_search.busy_s": busy.get("finite.enum_perm_reps", 0.0),
        "finite.perm_search.reps_out": ctr.get("finite.perm_search.reps_out", 0),
        "graphs.brute.calls": calls.get("graphs.brute_enumerate", 0),
        "graphs.brute.busy_s": busy.get("graphs.brute_enumerate", 0.0),
        "graphs.canonical_key.calls": canon,
        "graphs.brute.useful_ratio": ratio(ctr.get("graphs.brute.classes_out", 0), canon),
        "riemann_hurwitz.calls": calls.get("riemann_hurwitz", 0),
        "riemann_hurwitz.busy_s": busy.get("riemann_hurwitz", 0.0),
    }


def write_spans(path, stamp: dict, spans: list[tuple], total: int) -> None:
    """One header line of JSON, then one tab-separated line per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"stamp": stamp, "spans_total": total, "spans_kept": len(spans),
                             "columns": ["request", "name", "start", "end", "parent"]}) + "\n")
        for req, name, start, end, parent in spans:
            fh.write(f"{req}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
