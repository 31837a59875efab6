"""Per-layer tracing from outside the engine.

`Tracer.install()` replaces the public functions of each equirr module by
wrappers that record one span per call: (layer, start, end, parent span,
pair id, pass) plus a small per-layer detail taken from the arguments (a
dimension, a system size, a field), so failed calls have it too.  Every module attribute bound to the original function is
replaced, so calls through `from .x import f` names are seen too;
`restore()` puts the originals back.  Spans stay in memory and are written
out once, at the end of the run.

Layer metrics per pass:
  <layer>.calls    every call, nested ones included
  <layer>.s        inclusive time of the outermost calls of that layer
                   (recursive layers would otherwise count time twice)
  reps.chop.self_s span time minus the time of its direct child spans
  plus the layer-specific sums and maxima named in PER_LAYER.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _first_dim(args):
    return args[0].dim


def _rr_dim(args):
    """dim L(D) = deg D + 1 on P^1 for deg D >= -1 (args: geometry, D)."""
    return args[1].degree() + 1


def _hom_cells(args):
    """Size of the stacked Kronecker system hom_space builds:
    (#gens * dn * dm) x (dn * dm) cells."""
    M, N = args[0], args[1]
    unknowns = M.dim * N.dim
    return len(M.group.generators) * unknowns * unknowns


def _cartan_detail(args):
    """(field degree, identity of the (group, field) pair)."""
    G, field = args[0], args[1]
    return field.n, (tuple(G.labels), field.p, field.n)


def _self_field_n(args):
    return args[0].field.n


# (module, attribute path, layer name, detail function)
TARGETS = [
    ("scenarios", "realize", "scenarios.realize", None),
    ("groups", "FiniteGroup.close_generators",
     "groups.FiniteGroup.close_generators", None),
    ("fields", "Field.make", "fields.Field.make", None),
    ("fields", "poly_factor", "fields.poly_factor", None),
    ("geometry", "P1Geometry.rr_action_rep",
     "geometry.P1Geometry.rr_action_rep", _rr_dim),
    ("reps", "chop", "reps.chop", _first_dim),
    ("reps", "hom_space", "reps.hom_space", _hom_cells),
    ("reps", "indecomposable_summands", "reps.indecomposable_summands",
     None),
    ("k0", "cartan_data", "k0.cartan_data", _cartan_detail),
    ("k0", "cartesian_check", "k0.cartesian_check", None),
    ("k0", "smith_normal_form", "k0.smith_normal_form", None),
    ("engine", "oracle_euler_class", "engine.oracle_euler_class", None),
    ("engine", "euler_class_integral", "engine.formulas", None),
    ("engine", "euler_class_rational", "engine.formulas", None),
    ("engine", "euler_class_scaled", "engine.formulas", None),
    ("engine", "euler_class_tame_mod_regular", "engine.formulas", None),
    ("engine", "divided_cover_class", "engine.divided_cover_class", None),
    ("matrices", "Mat.rref", "matrices.Mat.rref", _self_field_n),
    ("matrices", "Mat.charpoly", "matrices.Mat.charpoly", None),
    ("matrices", "Mat.__matmul__", "matrices.Mat.matmul", None),
    ("matrices", "Mat.nullspace", "matrices.Mat.nullspace", None),
]

# name -> unit; the traced run reports exactly these.
PER_LAYER = {
    "scenarios.realize.calls": "count",
    "scenarios.realize.s": "s",
    "groups.FiniteGroup.close_generators.s": "s",
    "fields.Field.make.s": "s",
    "fields.poly_factor.calls": "count",
    "fields.poly_factor.s": "s",
    "geometry.P1Geometry.rr_action_rep.calls": "count",
    "geometry.P1Geometry.rr_action_rep.s": "s",
    "geometry.P1Geometry.rr_action_rep.dim_sum": "count",
    "reps.chop.calls": "count",
    "reps.chop.s": "s",
    "reps.chop.self_s": "s",
    "reps.chop.dim_sum": "count",
    "reps.hom_space.calls": "count",
    "reps.hom_space.s": "s",
    "reps.hom_space.max_cells": "count",
    "reps.indecomposable_summands.calls": "count",
    "reps.indecomposable_summands.s": "s",
    "k0.cartan_data.calls": "count",
    "k0.cartan_data.s": "s",
    "k0.cartan_data.ext_s": "s",
    "k0.cartan_data.redundant_frac": "ratio",
    "k0.cartesian_check.s": "s",
    "k0.smith_normal_form.calls": "count",
    "k0.smith_normal_form.s": "s",
    "engine.oracle_euler_class.s": "s",
    "engine.formulas.s": "s",
    "engine.divided_cover_class.s": "s",
    "matrices.Mat.rref.calls": "count",
    "matrices.Mat.rref.s": "s",
    "matrices.Mat.rref.ext_s": "s",
    "matrices.Mat.charpoly.calls": "count",
    "matrices.Mat.charpoly.s": "s",
    "matrices.Mat.matmul.calls": "count",
    "matrices.Mat.matmul.s": "s",
    "matrices.Mat.nullspace.calls": "count",
    "matrices.Mat.nullspace.s": "s",
    "trace.batch_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        # span: [layer, start, end, parent, pair, pass, outermost, detail]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []
        self.pair = None
        self.pass_index = None
        self._base_n: dict = {}

    def begin_pair(self, pair, pass_index, base_n: int):
        """Label the spans that follow; `base_n` is the degree of the
        scenario's base field, so work over GF(q^2) counts as extension."""
        self.pair, self.pass_index = pair, pass_index
        self._base_n[pair] = base_n

    # -- installation ---------------------------------------------------------

    def _wrap(self, layer, fn, detail):
        spans, open_, depth = self.spans, self._open, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = open_[-1] if open_ else None
            span = [layer, 0.0, 0.0, parent, self.pair, self.pass_index,
                    depth[layer] == 0, detail(args) if detail else None]
            spans.append(span)
            open_.append(idx)
            depth[layer] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                depth[layer] -= 1
                open_.pop()
            return result
        return traced

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "equirr" or name.startswith("equirr.")}
        for modname, path, layer, detail in TARGETS:
            owner = mods[f"equirr.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__, detail))
                else:
                    new = self._wrap(layer, raw, detail)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(owner, path)
            new = self._wrap(layer, orig, detail)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, new)

    def restore(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- derived metrics ----------------------------------------------------------

    def metrics(self, pass_index) -> dict:
        """Per-layer metrics over the spans of one pass."""
        out = {name: 0 for name in PER_LAYER
               if not name.startswith("trace.")}
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[5] == pass_index and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        cartan_keys = set()
        for idx, (layer, start, end, _parent, pair, pass_, outer,
                  detail) in enumerate(self.spans):
            if pass_ != pass_index:
                continue
            dur = end - start
            calls, incl = f"{layer}.calls", f"{layer}.s"
            if calls in out:
                out[calls] += 1
            if outer and incl in out:
                out[incl] += dur
            if layer == "reps.chop":
                out["reps.chop.self_s"] += dur - child_time[idx]
                if outer:
                    out["reps.chop.dim_sum"] += detail
            elif layer == "geometry.P1Geometry.rr_action_rep":
                out[f"{layer}.dim_sum"] += detail
            elif layer == "reps.hom_space":
                out["reps.hom_space.max_cells"] = max(
                    out["reps.hom_space.max_cells"], detail)
            elif layer == "k0.cartan_data":
                field_n, key = detail
                cartan_keys.add(key)
                if outer and field_n > self._base_n[pair]:
                    out["k0.cartan_data.ext_s"] += dur
            elif layer == "matrices.Mat.rref":
                if outer and detail > self._base_n[pair]:
                    out["matrices.Mat.rref.ext_s"] += dur
        if out["k0.cartan_data.calls"]:
            out["k0.cartan_data.redundant_frac"] = (
                1 - len(cartan_keys) / out["k0.cartan_data.calls"])
        return out

    def dump(self, path):
        """A header line naming the fields, then one JSON array per span;
        times are seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                            "parent", "pair", "pass"]}) + "\n")
            for idx, (layer, start, end, parent, pair, pass_, _outer,
                      _detail) in enumerate(self.spans):
                fh.write(json.dumps([idx, layer, round(start - t0, 7),
                                     round(end - t0, 7), parent, pair,
                                     pass_]) + "\n")
