"""Span tracing of the solver's layers, installed from outside the library.

``Tracer.patched()`` replaces every public module-level function of the six
solver modules, plus a few methods, with a wrapper that records one span per
call: name, parent span, start, end and a few call-specific fields.  A name
imported by another module (``nested_driver`` binds ``pcg``,
``interior_correction``, ``prolong_average``, ``build_hierarchy`` and
``assemble_rt0``, for example) is patched in the importing module as well,
so that no module of the package keeps calling an original.  A traced run
checks afterwards that the layers it must reach recorded spans.
Spans stay in memory until ``take()``; ``layer_metrics`` turns the spans of
one set-up plus one solve into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "nested_bddc"
MODULES = ("mesh_fem", "hierarchy", "saddle_core", "bddc", "krylov", "nested_driver")
# Decomposition levels reported per level; the deepest workload (ratio 3,
# L = 5) has levels 1..4, shallower ones report 0 for the missing levels.
LEVELS = (1, 2, 3, 4)
SETUP_SPAN = "nested_driver.NestedSolver.init"
SOLVE_SPAN = "nested_driver.NestedSolver.solve"


def _size_class(fact) -> str:
    limit = importlib.import_module(f"{PACKAGE}.saddle_core").DENSE_LIMIT
    return "dense" if fact.n <= limit else "sparse"


def _solve_note(args, result):
    n, rhs = args[0].n, args[1]
    cols = rhs.shape[1] if getattr(rhs, "ndim", 1) == 2 else 1
    # Forward plus backward substitution with a full n x n LU: 2 n^2 per column.
    return {"cols": cols, "flops": 2 * n * n * cols}


# (module, class, method, namer, noter).  A namer or noter gets the call's
# positional arguments and its return value.
METHODS = (
    ("saddle_core", "Factorization", "__init__",
     lambda a, r: f"saddle_core.factor_{_size_class(a[0])}", None),
    ("saddle_core", "Factorization", "solve",
     lambda a, r: f"saddle_core.solve_{_size_class(a[0])}", _solve_note),
    # The per-level recursion of the preconditioner has no public entry.
    ("bddc", "MultilevelPreconditioner", "_apply",
     lambda a, r: f"bddc.apply.L{a[1] + 1}", None),
    ("nested_driver", "NestedSolver", "__init__", None, None),
    ("nested_driver", "NestedSolver", "solve", None, None),
)

NOTES = {
    "krylov.pcg": lambda a, r: {"iters": r[1].iterations},
    "nested_driver.step3_correction": lambda a, r: {"level": a[1]},
    "bddc.build_level_bddc": lambda a, r: {"subdomains": a[1].n_sub},
}


class Tracer:
    """In-memory span recorder; a span is (name, parent index, t0, t1, note)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def take(self) -> list:
        """Spans recorded since the last call, in call order."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    def wrap(self, name, fn, namer=None, noter=None):
        spans, stack = self.spans, self._stack
        noter = noter or NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            done = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if done:
                    label = namer(args, result) if namer else name
                    spans[sid] = (label, parent, t0, t1, noter(args, result) if noter else None)
                else:
                    spans[sid] = (name, parent, t0, t1, None)

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        restore = []
        try:
            _install(self, restore)
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)


def _package_modules():
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
    ]


def _install(tracer: Tracer, restore: list) -> None:
    """Patch each public function where defined and wherever imported by name.

    ``restore`` collects what to put back, also when patching stops halfway.
    """
    wrappers, originals = {}, {}
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and not attr.startswith("_") and value.__module__ == mod.__name__:
                originals[id(value)] = value
                wrappers[id(value)] = tracer.wrap(f"{short}.{attr}", value)
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if originals.get(id(value)) is value:
                restore.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
    for short, cls_name, meth, namer, noter in METHODS:
        cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
        original = cls.__dict__[meth]
        restore.append((cls, meth, original))
        setattr(cls, meth, tracer.wrap(f"{short}.{cls_name}.{meth.strip('_')}", original, namer, noter))


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of the spans of one set-up followed by one solve.

    Factorizations count over set-up and solve, because interior KKTs are
    factored on first use; every other solve-path metric counts only spans
    under ``NestedSolver.solve``.
    """
    n = len(spans)
    dur = [t1 - t0 for _, _, t0, t1, _ in spans]
    covered = [0.0] * n
    top = [""] * n
    for i, (name, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
            top[i] = top[parent]  # parents are recorded before their children
        else:
            top[i] = name

    total, calls, selft = defaultdict(float), defaultdict(int), defaultdict(float)
    notes = defaultdict(lambda: defaultdict(float))
    for i, (name, parent, _, _, note) in enumerate(spans):
        key = name
        if name == "krylov.pcg" and parent >= 0 and spans[parent][4]:
            key = f"krylov.pcg.L{spans[parent][4]['level']}"
        scope = "solve" if top[i] == SOLVE_SPAN else "setup"
        for k in (key, f"{scope}:{key}"):
            total[k] += dur[i]
            calls[k] += 1
            selft[k] += dur[i] - covered[i]
            for field, value in (note or {}).items():
                notes[k][field] += value

    m = {
        "mesh_fem.assemble_rt0_s": total["mesh_fem.assemble_rt0"],
        "hierarchy.build_hierarchy_s": total["hierarchy.build_hierarchy"],
        "hierarchy.compute_weights_s": total["hierarchy.compute_weights"],
        "bddc.build_level_bddc_s": total["bddc.build_level_bddc"],
        "bddc.assemble_coarse_problem_s": total["bddc.assemble_coarse_problem"],
    }
    for kind in ("dense", "sparse"):
        m[f"saddle_core.factor_{kind}_s"] = total[f"saddle_core.factor_{kind}"]
        m[f"saddle_core.factor_{kind}_count"] = calls[f"saddle_core.factor_{kind}"]
    factorizations = m["saddle_core.factor_dense_count"] + m["saddle_core.factor_sparse_count"]
    subdomains = int(notes["bddc.build_level_bddc"]["subdomains"])
    m["bddc.factorizations"] = factorizations
    m["bddc.subdomains"] = subdomains
    m["bddc.subdomains_per_factorization"] = subdomains / factorizations if factorizations else 0.0
    for kind in ("dense", "sparse"):
        key = f"solve:saddle_core.solve_{kind}"
        m[f"saddle_core.solve_{kind}_s"] = total[key]
        m[f"saddle_core.solve_{kind}_calls"] = calls[key]
        m[f"saddle_core.solve_{kind}_cols"] = int(notes[key]["cols"])
    m["saddle_core.solve_dense_flops_computed"] = int(notes["solve:saddle_core.solve_dense"]["flops"])
    m["bddc.interior_correction_s"] = total["solve:bddc.interior_correction"]
    m["bddc.interior_correction_calls"] = calls["solve:bddc.interior_correction"]
    for k in LEVELS:
        m[f"bddc.apply.L{k}_s"] = total[f"bddc.apply.L{k}"]
        m[f"bddc.apply.L{k}_calls"] = calls[f"bddc.apply.L{k}"]
    m["bddc.apply.self_s"] = sum(selft[f"bddc.apply.L{k}"] for k in LEVELS)
    for k in LEVELS:
        m[f"krylov.pcg.L{k}_s"] = total[f"krylov.pcg.L{k}"]
        m[f"krylov.iters.L{k}"] = int(notes[f"krylov.pcg.L{k}"]["iters"])
    m["nested_driver.step1_s"] = total["nested_driver.step1_coarse_rhs"]
    m["nested_driver.step2_s"] = total["nested_driver.step2_subdomain_solve"]
    m["nested_driver.step3_s"] = total["nested_driver.step3_correction"]
    m["trace.spans"] = n
    return m
