"""Outside-in span tracer for the gkpmdi package.

The tracer wraps the public functions of the traced modules without editing
them.  Modules such as ``sweeps``, ``fading`` and ``cli`` bind their
dependencies with ``from .gkp import ...``, so wrapping the defining module
alone would miss those calls: ``install`` rebinds every attribute of every
loaded ``gkpmdi`` module that is one of the original objects.

Spans are kept in memory (name, parent, start, end in compact arrays) and
written out once at the end.  Self time of a span is its duration minus the
part of it covered by wrapped child spans, so the self times of all spans
partition the time covered by the outermost spans.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "gkpmdi"
TRACED_MODULES = ("config", "gkp", "security", "finite_size", "fading",
                  "sweeps", "mc", "cli")


def _is_traceable(obj, module_name: str) -> bool:
    # plain functions and lru_cache objects (sweeps.link_sigma_r2); classes
    # and dataclasses are left alone
    callable_kind = inspect.isfunction(obj) or hasattr(obj, "cache_info")
    return callable_kind and getattr(obj, "__module__", None) == module_name


def _file_bytes(path) -> float:
    return float(os.path.getsize(path)) if path is not None and os.path.exists(path) else 0.0


# Work counted from a call's arguments: name -> (counter suffix, amount).
# mc_pe_coverage draws trials x m_pe pairs for each of the two quadratures.
_WORK = {
    "mc.mc_pe_coverage": ("pairs", lambda a: 2.0 * a["n_trials"] * a["m_pe"]),
    "mc.mc_residual_variance": ("samples", lambda a: float(a["n_samples"])),
    "mc.mc_protocol_mutual_info": ("samples", lambda a: float(a["n_samples"])),
    "cli.write_rows": ("bytes", lambda a: _file_bytes(a["path"])),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._covered: list[float] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.edges: dict[tuple[int, int], int] = {}
        self.work: dict[str, float] = {}
        self.rebound = 0

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self
        work = _WORK.get(name)
        sig = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_start)
            parent = stack[-1] if stack else -1
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer._covered.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                covered = tracer._covered.pop()
                dur = t1 - t0
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                tracer.calls[nid] += 1
                tracer.total[nid] += dur
                tracer.self_time[nid] += dur - covered
                if tracer._covered:
                    tracer._covered[-1] += dur
                pnid = tracer.span_name[parent] if parent >= 0 else -1
                key = (pnid, nid)
                tracer.edges[key] = tracer.edges.get(key, 0) + 1
                if work is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    key = f"{name}.{work[0]}"
                    tracer.work[key] = tracer.work.get(key, 0.0) + work[1](bound.arguments)

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap the traced modules' public functions and rebind every alias."""
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not _is_traceable(obj, mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self.rebound += 1

    # -- results ---------------------------------------------------------
    def edge_calls(self, child: str, parent_prefix: str) -> int:
        """Calls of ``child`` whose nearest wrapped caller starts with ``parent_prefix``."""
        out = 0
        for (pnid, nid), n in self.edges.items():
            if self.names[nid] == child and pnid >= 0 \
                    and self.names[pnid].startswith(parent_prefix):
                out += n
        return out

    def summary(self) -> dict:
        funcs = {name: {"calls": self.calls[i], "total_s": self.total[i],
                        "self_s": self.self_time[i]}
                 for i, name in enumerate(self.names) if self.calls[i]}
        roots = [i for i, p in enumerate(self.span_parent) if p < 0]
        covered = sum(self.span_end[i] - self.span_start[i] for i in roots)
        return {"functions": funcs, "work": dict(self.work), "root_covered_s": covered,
                "spans": len(self.span_start), "rebound": self.rebound,
                "edges": {"evals_under_optimize":
                          self.edge_calls("gkp.residual_variance", "gkp.optimize_squeezing"),
                          "probes_under_frontier":
                          self.edge_calls("sweeps.link_sigma_r2",
                                          "sweeps.max_secure_distance"),
                          "optimize_under_fading":
                          self.edge_calls("gkp.optimize_squeezing", "fading.")}}

    def write_spans(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
