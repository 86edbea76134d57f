"""Outside-in span tracing of kgmlab's public functions.

The package imports its collaborators by name (``from .kernel import
deriv_x``), so wrapping a function only where it is defined would miss
almost every call.  ``Tracer.install`` therefore rebinds each traced function
in every loaded ``kgmlab.*`` namespace that holds that same object, wraps the
constructor of traced classes on the class itself, and wraps the entries of
``checks.CRITERIA`` in place.  Nothing under ``src/`` is edited.

Spans (name, start, end, parent) are kept in flat arrays while the operation
runs; self time is a span's duration minus the durations of its direct
children, and everything is reduced to metrics only after the operation
ends.  A traced name that a later revision removes or renames is reported in
``absent``, not raised.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# layer -> public names whose calls are timed (layers are kgmlab modules)
TRACED: dict[str, tuple[str, ...]] = {
    "kernel": ("deriv_x", "deriv_xx"),
    "scenarios": ("make_scenario", "solve_gauss_constraint", "solve_gauss_rate"),
    "full": ("step_full", "accel_full"),
    "reduced": ("step_reduced", "accel_reduced", "reconstruct_phi",
                "reconstruct_phi_dot"),
    "diagnostics": ("snapshot_extras", "total_energy", "current_residual",
                    "compare"),
    "carleman": ("FockBasis", "ladder_matrices", "build_m", "coherent_vector",
                 "evolve", "classical_flow", "recenter"),
    "cli": ("write_snapshot", "read_snapshot"),
}
LAYERS: tuple[str, ...] = (*TRACED, "checks")
# the criteria of the acceptance gate, by the names it prints
CRITERIA = ("oracle-equivalence", "equivalence-order",
            "current-conservation-order", "energy-drift-order",
            "gauge-wave-regression", "intensity-identity", "riccati-ladder",
            "ladder-structure", "reduced-embedding", "determinism-persistence")
# functions whose raised exceptions are counted
FAIL_COUNTED = ("scenarios.make_scenario", "scenarios.solve_gauss_constraint",
                "full.step_full", "reduced.step_reduced", "carleman.evolve")
# work counts summed from the results of traced calls
CALL_COUNTS = ("carleman.fock_dim_total", "carleman.build_m.nnz",
               "cli.write_snapshot.bytes")


class Tracer:
    """Span recorder for one operation in one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.failed = dict.fromkeys(FAIL_COUNTED, 0)
        self.counts = dict.fromkeys(CALL_COUNTS, 0)
        self.absent: list[str] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.nid, self.parent, self.start, self.end
        stack, failed, clock = self._stack, self.failed, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                if name in failed:
                    failed[name] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _on_result(self, name: str):
        counts = self.counts
        if name == "carleman.FockBasis":
            def hook(args, _):
                counts["carleman.fock_dim_total"] += args[0].dim
        elif name == "carleman.build_m":
            def hook(_, result):
                counts["carleman.build_m.nnz"] += result.nnz
        elif name == "cli.write_snapshot":
            def hook(args, _):
                path = Path(args[0])
                counts["cli.write_snapshot.bytes"] += (
                    path.stat().st_size
                    + path.with_name(path.name + ".json").stat().st_size)
        else:
            hook = None
        return hook

    def install(self) -> None:
        """Wrap every traced name; import the kgmlab modules it needs."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"kgmlab.{layer}")
            except ImportError:
                modules[layer] = None
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "kgmlab"
                                            or key.startswith("kgmlab."))]
        for layer, fns in TRACED.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                obj = getattr(modules[layer], fn, None)
                if obj is None:
                    self.absent.append(name)
                    continue
                if isinstance(obj, type):
                    obj.__init__ = self._wrap(name, obj.__init__,
                                              self._on_result(name))
                    continue
                wrapped = self._wrap(name, obj, self._on_result(name))
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, attr, wrapped)
        criteria = getattr(modules["checks"], "CRITERIA", None)
        if criteria is None:
            self.absent += [f"checks.{c}" for c in CRITERIA]
            return
        present = set()
        for i, (cname, check) in enumerate(criteria):
            criteria[i] = (cname, self._wrap(f"checks.{cname}", check))
            present.add(cname)
        self.absent += [f"checks.{c}" for c in CRITERIA if c not in present]

    # -- reduction ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "nid": np.frombuffer(self.nid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since install."""
        a = self.arrays()
        nid, parent = a["nid"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        n_names = len(self.names)
        calls = np.bincount(nid, minlength=n_names)
        self_by_name = np.bincount(nid, weights=self_s, minlength=n_names)
        incl_by_name = np.bincount(nid, weights=dur, minlength=n_names)
        ids = {name: i for i, name in enumerate(self.names)}

        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, i in ids.items():
            layer_self[name.split(".", 1)[0]] += float(self_by_name[i])
        for layer, fns in TRACED.items():
            for fn in fns:
                i = ids.get(f"{layer}.{fn}")
                out[f"{layer}.{fn}.calls"] = 0 if i is None else int(calls[i])
                out[f"{layer}.{fn}.self_s"] = (
                    0.0 if i is None else float(self_by_name[i]))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        for c in CRITERIA:
            i = ids.get(f"checks.{c}")
            out[f"checks.{c}.s"] = 0.0 if i is None else float(incl_by_name[i])
        for f in FAIL_COUNTED:
            out[f"{f}.failed"] = self.failed[f]
        out.update(self.counts)

        # Phi reconstructions made on behalf of diagnostics, per snapshot
        # diagnosed: a span is "in diagnostics" when it or an ancestor is
        diag_ids = [i for name, i in ids.items()
                    if name.startswith("diagnostics.")]
        in_diag = np.isin(nid, diag_ids)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            in_diag[live] |= np.isin(nid[anc[live]], diag_ids)
            anc[live] = parent[anc[live]]
        recon = ids.get("reduced.reconstruct_phi")
        extras = ids.get("diagnostics.snapshot_extras")
        n_snap = 0 if extras is None else int(calls[extras])
        n_recon = 0 if recon is None else int(np.sum(in_diag & (nid == recon)))
        out["diagnostics.reconstructions_per_snapshot"] = (
            n_recon / n_snap if n_snap else 0.0)
        return out
