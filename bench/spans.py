"""In-memory span tracing of the artinkernels modules, from outside them.

`install` replaces public functions of the package by wrappers that record
one span per call: (name, start, end, parent, job).  Every module attribute
bound to the original function is replaced, so names imported into `cli`,
`smith`, `spectral` ... and `from .linalg import rank` lookups made at call
time all reach the wrapper.  Inner helpers called millions of times
(`dense_mul`, field arithmetic, the forest `leaf` closure) are left alone:
their time is self time of the nearest traced caller.

`summarize` turns a span list into self time per layer (a layer is the
module a function lives in), inclusive time per function and the counts
the wrappers recorded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, function) pairs to trace; a layer is the module name
TRACED = {
    "cli": ("run",),
    "graphs": ("validate_graph", "is_fc_type", "resonance_sets",
               "torsion_support", "connected_components"),
    "flag": ("build_flag_complex", "boundary_matrix", "image_dims",
             "reduced_homology_ranks"),
    "linalg": ("rank", "staircase_leads"),
    "twisted": ("twisted_boundary",),
    "smith": ("boundary_smith_form", "smith_normal_form",
              "cyclotomic_invariant_factors", "cyclotomic_candidates",
              "specialized_rank", "taylor_block", "decompose_torsion",
              "verify_shape"),
    "laurent": ("factor_invariant", "taylor_at_root", "laurent_gcd",
                "residue_eval"),
    "spectral": ("weighted_complex", "page_dims", "solve_torsion",
                 "forest_fitting_h1"),
    "resonant": ("build_gamma1", "h1_free_rank", "build_f2", "h2_free_rank"),
}
LAYERS = tuple(TRACED)


def _matrix_cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


def _nonzero_entries(m) -> int:
    return sum(1 for row in m.entries for e in row if not e.is_zero())


# counters recorded when a traced call returns: name -> (args, result) -> n
COUNTERS = {
    "linalg.rank": ("linalg.rank.cells", lambda args, out: _matrix_cells(args[1])),
    "smith.taylor_block": ("smith.taylor_block.cells", lambda args, out: _matrix_cells(out)),
    "smith.cyclotomic_candidates": ("smith.candidates", lambda args, out: len(out)),
    "flag.build_flag_complex": ("flag.simplices", lambda args, out: sum(out.counts().values())),
    "twisted.twisted_boundary": ("twisted.entries", lambda args, out: _nonzero_entries(out)),
}


class Tracer:
    """Span recorder.  Spans are lists [name, start, end, parent, job]; the
    parent is the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if counter is not None:
                counts[counter[0]] += counter[1](args, out)
            return out

        return traced


def install(tracer: Tracer) -> list:
    """Wrap every function in TRACED and rebind each module attribute that
    refers to it.  Returns the replaced bindings for `restore`."""
    import importlib
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and name.partition(".")[0] == "artinkernels"]
    replaced = []
    for layer, names in TRACED.items():
        mod = importlib.import_module(f"artinkernels.{layer}")
        for fname in names:
            orig = getattr(mod, fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        replaced.append((m, attr, orig))
    return replaced


def restore(replaced: list) -> None:
    for m, attr, orig in replaced:
        setattr(m, attr, orig)


def summarize(spans: list) -> dict:
    """Self time per layer, self and inclusive time per function, call
    counts.  A span's self time is its duration minus the durations of its
    direct children; inclusive time counts only spans with no ancestor of
    the same name, so recursion is not counted twice."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layer_self: dict = {layer: 0.0 for layer in LAYERS}
    fn_self: Counter = Counter()
    fn_incl: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, parent, _job) in enumerate(spans):
        dur = end - start
        self_t = dur - child_time[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_t
        fn_self[name] += self_t
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            fn_incl[name] += dur
    return {"layer_self_s": layer_self, "self_s": dict(fn_self),
            "inclusive_s": dict(fn_incl), "calls": dict(calls)}


def write_spans(spans: list, path: str) -> None:
    """One JSON list per line: name, start, end, parent index, job id;
    times in seconds from the first span's start."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, job in spans:
            fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                 parent, job]) + "\n")
