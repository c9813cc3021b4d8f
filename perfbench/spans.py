"""Spans around the program's public functions, for the traced run.

Each wrapped function records a span (name, start, end, parent span, the
operation it ran for) in memory. A wrapper replaces the function at every
name in cob3's modules that is bound to it, since callers look functions up
there (`cob3.rewrite.nf`, the globals of `cob3._kernel_py`, ...). Methods are
replaced on their class. Nothing inside the program is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer metric prefix, module, attribute); "Class.method" patches a class.
TARGETS = [
    ("kernel.nf", "cob3.kernel", "nf"),
    ("kernel.successors", "cob3.kernel", "successors"),
    ("kernel.find_matches", "cob3.kernel", "find_matches"),
    ("kernel.find_insertions", "cob3.kernel", "find_insertions"),
    ("kernel.apply_match", "cob3.kernel", "apply_match"),
    ("kernel.apply_insertion", "cob3.kernel", "apply_insertion"),
    ("rewrite.find_path", "cob3.rewrite", "find_path"),
    ("rewrite.normalize_G1", "cob3.rewrite", "normalize_G1"),
    ("rewrite.normalize_G2", "cob3.rewrite", "normalize_G2"),
    ("evaluate.eval_term", "cob3.evaluate", "eval_term"),
    ("evaluate.eval_semantic", "cob3.evaluate", "eval_semantic"),
    ("linmap.eq", "cob3.linmap", "LinearMap.__eq__"),
    ("cospan.cospan_of_term", "cob3.cospan", "cospan_of_term"),
    ("layers.term_to_state", "cob3.layers", "term_to_state"),
    ("layers.state_to_term", "cob3.layers", "state_to_term"),
    ("terms.parse", "cob3.terms", "parse"),
    ("terms.print_term", "cob3.terms", "print_term"),
    ("frobenius.build", "cob3.frobenius", "diagonal_algebra"),
    ("frobenius.build", "cob3.frobenius", "conjugate_algebra"),
    ("frobenius.build", "cob3.frobenius", "hadamard_algebra"),
    ("frobenius.verify_cf", "cob3.frobenius", "FrobeniusAlgebra.verify_cf"),
    ("cli.main", "cob3.cli", "main"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op)
        self.stack = []
        self.op = "setup"
        self.active = True
        self.nf_inputs = set()
        self.fanout = 0
        self.explored = 0

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if name == "kernel.nf":
                self.nf_inputs.add(args[0])
            elif name == "kernel.successors":
                self.fanout += len(result)
            elif name == "rewrite.find_path":
                self.explored += result.explored
            return result

        return wrapper

    def install(self):
        """Replace every target at each name cob3's modules bind it to."""
        for _name, modname, _attr in TARGETS:
            importlib.import_module(modname)
        modules = [m for n, m in sys.modules.items() if n == "cob3" or n.startswith("cob3.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def layer_metrics(self):
        """Per-layer counts and self times (span time minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, longest = {}, {}, {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            longest[name] = max(longest.get(name, 0.0), end - start)
        nf_calls = calls.get("kernel.nf", 0)
        succ_calls = calls.get("kernel.successors", 0)
        out = {
            "kernel.nf.distinct_ratio": len(self.nf_inputs) / nf_calls if nf_calls else 0.0,
            "kernel.successors.fanout": self.fanout / succ_calls if succ_calls else 0.0,
            "rewrite.find_path.explored": self.explored,
            "evaluate.eval_term.max_call_s": longest.get("evaluate.eval_term", 0.0),
        }
        for name in dict.fromkeys(name for name, _mod, _attr in TARGETS):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
