"""Run one cliquedist CLI invocation in-process with its layers traced.

usage: python trace_child.py SPANS_JSON CLI_ARG...

Each function listed in traced.py is rebound, on the module where the program looks
it up, to a wrapper that records a span: name, start, end, parent, thread
and whether it raised. A call made on a pool thread with no open span of its
own gets, as parent, the innermost open span of the main thread, which is
blocked inside the call that started the pool. Spans stay in memory and are
written to SPANS_JSON when the invocation ends, together with the per-name
call and exception counts (0 for a wrapper that never fired) and the import
time of the package.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

_t0 = time.perf_counter()
import cliquedist  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from traced import PAIR_SPAN, TRACED  # noqa: E402


def _corpus_tokens(corpus):
    return sum(len(d.tokens()) for d in corpus.documents)


def _file_lines(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


# Submodules by import path: the package re-exports a function named `wmd`.
MODULES = {name: importlib.import_module(f"cliquedist.{name}")
           for name in ("cli", "metrics", "wmd")}
cli = MODULES["cli"]

# Span attributes from (args, kwargs, result), computed after the invocation,
# outside every span.
ATTRIBUTES = {
    "core.load_embeddings": lambda a, k, r: {"words": len(r)},
    "textprep.load_corpus": lambda a, k, r: {"tokens": _corpus_tokens(r)},
    "textprep.load_concept_annotations": lambda a, k, r: {"lines": _file_lines(a[0])},
    "textprep.split_related": lambda a, k, r: {"kept": len(r[0]), "dropped": len(r[1])},
    "metrics.pairwise_distances": lambda a, k, r: {"pairs": r.n * (r.n - 1) // 2},
    "distortion.permutation_stats": lambda a, k, r: {"relabelings": r.permutation_count},
    "wmd.solve_ot": lambda a, k, r: {"cells": len(a[0].support) * len(a[1].support)},
}


class Tracer:
    def __init__(self):
        self.spans = {}       # index -> [name, start, end, parent, thread, raised]
        self.deferred = []    # (span index, attribute fn, args, kwargs, result)
        self.names = [PAIR_SPAN]
        self.missing = []
        self._next = itertools.count()  # next() on it is atomic under the GIL
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = self._stack()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "metrics.pairwise_distances":
                if "model" in kwargs:
                    kwargs["model"] = self.wrap(kwargs["model"], PAIR_SPAN)
                else:
                    args = (args[0], self.wrap(args[1], PAIR_SPAN)) + args[2:]
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not self._main and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            index = next(self._next)
            span = [name, time.perf_counter(), None, parent, threading.get_ident(), False]
            self.spans[index] = span
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                self.deferred.append((index, attrs, args, kwargs, result))
            return result

        return wrapper

    def install(self):
        for module_name, attr, name in TRACED:
            self.names.append(name)
            module = MODULES[module_name]
            if hasattr(module, attr):
                setattr(module, attr,
                        self.wrap(getattr(module, attr), name, ATTRIBUTES.get(name)))
            else:
                self.missing.append(f"{module_name}.{attr}")

    def dump(self, path):
        extra = {}
        for index, attrs, args, kwargs, result in self.deferred:
            extra[index] = attrs(args, kwargs, result)
        spans = [self.spans[i] + [extra.get(i, {})] for i in range(len(self.spans))]
        calls = dict.fromkeys(self.names, 0)
        errors = dict.fromkeys(self.names, 0)
        for span in spans:
            calls[span[0]] += 1
            errors[span[0]] += span[5]
        payload = {"import_s": IMPORT_S, "package": cliquedist.__file__, "calls": calls,
                   "errors": errors, "missing": self.missing, "spans": spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def main(argv):
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
