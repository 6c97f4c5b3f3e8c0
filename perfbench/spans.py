"""Spans around calls into graphtorsion's public functions, kept in memory.

A traced run replaces each function listed in LAYERS, wherever a graphtorsion
module holds a reference to it, by a wrapper that records a span: name,
start, end (perf_counter seconds) and the index of the enclosing span.  Calls
the package makes to itself through module globals are therefore seen too,
so a layer's self time (its spans minus the spans opened inside them) splits
an audit into torsion, mesh, eigen and audit-record time.  Nothing under src/
changes; the wrappers are removed by ``uninstall``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _matrix_bytes(matrix) -> int:
    """Bytes held by a dense array or a scipy.sparse matrix."""
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    parts = ("data", "indices", "indptr", "row", "col", "offsets")
    return sum(int(getattr(matrix, p).nbytes) for p in parts if hasattr(matrix, p))


def _count_system(counts: Counter, system) -> None:
    counts["torsion.unknowns"] += len(system.order)
    counts["torsion.system_bytes"] += _matrix_bytes(system.matrix)


def _count_spectrum(counts: Counter, result) -> None:
    counts["spectral.mesh_nodes"] += int(result.values.shape[1])
    counts["spectral.iterations"] += int(sum(result.iterations))


def _count_report(counts: Counter, report) -> None:
    counts["bounds.records"] += len(report.records)


# (module, owner inside it or None for the module itself, attribute, span name, counter)
LAYERS = (
    ("graphtorsion.graph", None, "loads", "graph.load", None),
    ("graphtorsion.graph", "MetricGraph", "inradius", "graph.inradius", None),
    ("graphtorsion.graph", "MetricGraph", "is_doubly_connected_after_glue", "graph.bridges", None),
    ("graphtorsion.torsion", None, "assemble_discrete_system", "torsion.assemble", _count_system),
    ("graphtorsion.torsion", None, "solve_discrete_torsion", "torsion.factor", None),
    ("graphtorsion.torsion", None, "torsion_function", "torsion.polys", None),
    ("graphtorsion.torsion", None, "rigidity", "torsion.rigidity", None),
    ("graphtorsion.shape_opt", None, "gradient", "shape_opt.gradient", None),
    ("graphtorsion.spectral", None, "build_mesh", "spectral.mesh", None),
    ("graphtorsion.spectral", None, "lowest_eigenpairs", "spectral.eigen", _count_spectrum),
    ("graphtorsion.spectral", "Mesh", "trapezoid_weights", "spectral.weights", None),
    ("graphtorsion.spectral", None, "integrated_heat_content", "spectral.heat", None),
    ("graphtorsion.bounds", None, "audit", "bounds.audit", _count_report),
    ("graphtorsion.surgery", None, "apply", "surgery.apply", None),
)


class Tracer:
    """Records spans as [name, start, end, parent index] plus call-site counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every LAYERS entry in every loaded graphtorsion module that refers to it."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "graphtorsion"]
        for mod_name, owner_name, attr, name, counter in LAYERS:
            owner = sys.modules[mod_name]
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counter)
            targets = [owner] if owner_name is not None else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, key, original))
                        setattr(target, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def self_times(self, first: int = 0) -> Counter:
        """Seconds per span name, minus time in spans opened inside, from span index first on."""
        own: Counter = Counter()
        for name, start, end, parent in self.spans[first:]:
            own[name] += end - start
            if parent >= first:
                own[self.spans[parent][0]] -= end - start
        return own

    def total_times(self, first: int = 0) -> Counter:
        """Seconds per span name, children included."""
        out: Counter = Counter()
        for name, start, end, _parent in self.spans[first:]:
            out[name] += end - start
        return out
