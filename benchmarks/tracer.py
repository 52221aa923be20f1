"""Outside-in span tracer for the memstress layers.

The program has no spans of its own, so the tracer wraps public functions
from outside.  Modules bind names with ``from .x import y``, so each target
is replaced in every ``memstress`` module namespace that holds the original
function object; wrapping only the defining module would miss calls such as
``experiments.eigh_tridiag``.  ``PauliSum.apply`` is wrapped on the class and
``scipy.sparse.linalg.eigsh`` on scipy's namespace.

A span is ``[name, parent, start, end]`` kept in memory.  A layer's self time
is its span time minus the time of its direct child spans.  Tiny hot helpers
(``reporting.format_number``, ``pauli.multiply``, ``spectral.min_gap`` ...)
stay unwrapped; their time lands in the calling span's self time.
"""

from __future__ import annotations

import csv
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Spans whose PauliSum.apply descendants are counted as their matvecs.
MATVEC_OWNERS = ("oracle.krylov_propagate", "oracle.eigsh")


def _tridiag_path(counters, args, kwargs):
    m = args[0]
    counters["spectral.eigh_tridiag.max_dim"] = max(
        counters["spectral.eigh_tridiag.max_dim"], m.dim
    )
    # the input test eigh_tridiag applies before its mirror-split path
    if m.dim > 1 and (m.offdiag > 0.0).all() and m.is_persymmetric():
        counters["spectral.eigh_tridiag.persym_calls"] += 1


def _trace_points(counters, args, kwargs):
    s, times = args[0], args[1]
    counters["transfer.fidelity_trace.points"] += len(times) * s.dim


def _jacobi_flops(counters, args, kwargs):
    # two full reorthogonalisation sweeps dominate: 8 M (j + 1) flops at step j
    M = len(args[0])
    counters["iep.reconstruct_jacobi.flops_computed"] += 4 * M * M * (M + 1)


def _pauli_bytes(counters, args, kwargs):
    counters["pauli.bytes_computed"] += (1 << args[0].n_qubits) * 16


def _splitting_points(counters, args, kwargs):
    deltas = args[2] if len(args) > 2 else kwargs["deltas"]
    counters["splitting.measure_splitting.points"] += len(deltas)


# (defining module, function name, counter hook called before the function)
TARGETS = (
    ("pauli", "apply_to_state", _pauli_bytes),
    ("pauli", "conjugate_by_circuit", None),
    ("oracle", "krylov_propagate", None),
    ("oracle", "toric_ground_state", None),
    ("oracle", "subspace_projection", None),
    ("oracle", "effective_matrix_elements", None),
    ("oracle", "verify_duality_map", None),
    ("oracle", "two_excitation_transfer", None),
    ("spectral", "eigh_tridiag", _tridiag_path),
    ("spectral", "eigh_dense_symmetric", None),
    ("transfer", "fidelity_trace", _trace_points),
    ("transfer", "fidelity", None),
    ("transfer", "measure_transfer_time", None),
    ("transfer", "locate_fidelity_peak", None),
    ("iep", "reconstruct_jacobi", _jacobi_flops),
    ("iep", "retune_chain", None),
    ("iep", "retune_eigenvalues", None),
    ("iep", "mirror_symmetric_weights", None),
    ("splitting", "dense_eigenvalue_mp", None),
    ("splitting", "tridiag_eigenvalue_mp", None),
    ("splitting", "measure_splitting", _splitting_points),
    ("lattices", "ising_prefix_energy", None),
    ("lattices", "toric_hamiltonian", None),
    ("lattices", "toric_perturbation", None),
    ("effective", "ising_surface_diagonal", None),
    ("effective", "ising_effective_surface", None),
    ("effective", "banded_effective", None),
    ("reporting", "write_csv", None),
    ("reporting", "write_json", None),
)

PAULI_APPLY = "pauli.PauliSum.apply"
EIGSH = "oracle.eigsh"
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TARGETS) + (PAULI_APPLY, EIGSH)


class Tracer:
    """Records spans and counters while installed; one pass at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self._stack = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func, hook=None):
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self.counters, args, kwargs)
            idx = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = func
        return traced

    def _count_matvec(self, counters, args, kwargs):
        for idx in reversed(self._stack):
            owner = self.spans[idx][0]
            if owner in MATVEC_OWNERS:
                counters[f"{owner}.matvecs"] += 1
                return

    def _replace(self, holder, attr: str, new) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self) -> None:
        """Wrap every target in every loaded memstress namespace."""
        import scipy.sparse.linalg as spla

        from memstress.pauli import PauliSum

        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "memstress" or n.startswith("memstress."))]
        for mod, fn, hook in TARGETS:
            original = getattr(importlib.import_module(f"memstress.{mod}"), fn)
            wrapper = self._wrap(f"{mod}.{fn}", original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        self._replace(PauliSum, "apply",
                      self._wrap(PAULI_APPLY, PauliSum.apply, self._count_matvec))
        self._replace(spla, "eigsh", self._wrap(EIGSH, spla.eigsh))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def self_times(self) -> dict[str, float]:
        """Span time minus direct-child span time, summed per name."""
        own: dict[str, float] = {}
        for name, parent, start, end in self.spans:
            dur = end - start
            own[name] = own.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                own[pname] = own.get(pname, 0.0) - dur
        return own

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def write(self, path: Path) -> None:
        """Write the recorded spans as CSV (times relative to the first span)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "parent", "start_s", "end_s"])
            for idx, (name, parent, start, end) in enumerate(self.spans):
                out.writerow([idx, name, parent, f"{start - t0:.9f}", f"{end - t0:.9f}"])
