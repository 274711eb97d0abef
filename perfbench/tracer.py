"""Layer tracing from outside the engine.

`Tracer.install()` replaces the layers' public functions, wherever an
engine module holds a reference to them, with wrappers that record a span
(id, parent span, op, layer, start, end) or bump a counter; `uninstall()`
puts the originals back.  Nothing under src/ changes.  Spans stay in
memory and are written out at the end of the traced run.

A layer's self time is its spans' wall time minus the time of the traced
spans nested directly inside them.  The harness tags each span with the
op it ran in; spans of the set-up carry no op.  The modelfile.* metrics
read the set-up's spans, every other metric the ops' spans and the
counters bumped since `reset_counters()`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from ignorability_lab import (
    cli,
    exactprob,
    ignorance,
    inference,
    mc,
    modelfile,
    reports,
    sampling,
)


def _len_result(result):
    return len(result)


def _joint_atoms(result):
    return len(result.items)


def _draws(result):
    return result.draws


# (layer, owner, attribute, size counter, sizer)
SPANS = (
    ("cli", cli, "main", None, None),
    ("modelfile.parse", modelfile, "parse_model", None, None),
    ("modelfile.build", modelfile.ModelDocument, "build", None, None),
    ("sampling.world_space", sampling.SurveyModel, "world_space", "sampling.worlds", _len_result),
    ("sampling.build_joint", sampling, "build_joint", "sampling.joint_atoms", _joint_atoms),
    ("ignorance.family", ignorance.Family, "from_survey_model", None, None),
    ("ignorance.split", ignorance, "make_split", None, None),
    ("ignorance.ignore", ignorance, "ignore_model", None, None),
    ("inference.classify", inference, "classify", None, None),
    ("inference.equivalence", inference, "likelihood_equivalent", None, None),
    ("inference.equivalence", inference, "sampling_dist_equivalent", None, None),
    ("inference.equivalence", inference, "posterior_equivalent", None, None),
    ("inference.rubin_audit", inference, "rubin_theorem_audit", None, None),
    ("inference.mar_oar", inference, "check_mar", None, None),
    ("inference.mar_oar", inference, "check_oar", None, None),
    ("mc.sample", mc, "compare_exact_vs_mc", "mc.draws", _draws),
    ("reports.emit", reports, "emit_report", None, None),
    ("reports.emit", reports, "machine_json", None, None),
    ("reports.emit", reports, "classification_payload", None, None),
    ("reports.emit", reports, "rubin_payload", None, None),
)

# (counter, owner, attribute, amount added per call)
COUNTERS = (
    ("exactprob.canonical_key_calls", exactprob, "canonical_key", None),
    ("ignorance.phi_set_calls", ignorance, "phi_set", None),
    ("ignorance.families_built", ignorance.Family, "__init__", None),
    ("exactprob.dist_new_pairs", exactprob, "dist_new", "pairs"),
)

# per-layer metric -> (unit, how it is read from the trace)
METRICS = {
    "ignorance.ignore_s": ("s", ("self", "ignorance.ignore")),
    "ignorance.phi_set_calls": ("count", ("counter", "ignorance.phi_set_calls")),
    "exactprob.canonical_key_calls": ("count", ("counter", "exactprob.canonical_key_calls")),
    "ignorance.families_built": ("count", ("counter", "ignorance.families_built")),
    "inference.classify_calls": ("count", ("calls", "inference.classify")),
    "ignorance.family_s": ("s", ("self", "ignorance.family")),
    "ignorance.split_s": ("s", ("self", "ignorance.split")),
    "sampling.world_space_s": ("s", ("self", "sampling.world_space")),
    "inference.equivalence_s": ("s", ("self", "inference.equivalence")),
    "inference.rubin_audit_s": ("s", ("self", "inference.rubin_audit")),
    "inference.mar_oar_s": ("s", ("self", "inference.mar_oar")),
    "mc.sample_s": ("s", ("self", "mc.sample")),
    "mc.draws": ("count", ("counter", "mc.draws")),
    "sampling.build_joint_s": ("s", ("self", "sampling.build_joint")),
    "sampling.build_joint_calls": ("count", ("calls", "sampling.build_joint")),
    "modelfile.parse_s": ("s", ("self", "modelfile.parse", "modelfile.build")),
    "modelfile.docs": ("count", ("calls", "modelfile.parse")),
    "sampling.worlds": ("count", ("counter", "sampling.worlds")),
    "sampling.joint_atoms": ("count", ("counter", "sampling.joint_atoms")),
    "exactprob.dist_new_pairs": ("count", ("counter", "exactprob.dist_new_pairs")),
    "reports.emit_s": ("s", ("self", "reports.emit")),
    "cli.self_s": ("s", ("self", "cli")),
}


def _engine_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("ignorability_lab") and m is not None]


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, op, layer, start, end)
        self.counters = defaultdict(int)
        self.op = None  # name of the op being run, set by the harness
        self._stack = []
        self._next_id = 0
        self._saved = []  # (owner, attribute, original) to restore
        self._cells = {}  # counter name -> one-element list bumped by its wrapper

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, layer, size_name, sizer):
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, self.op, layer, start, end))
            if sizer is not None:
                self.counters[size_name] += sizer(result)
            return result

        return wrapper

    def _counter(self, fn, name, amount):
        cell = [0]
        self._cells[name] = cell
        if amount == "pairs":
            def wrapper(pairs, *args, **kwargs):
                pairs = list(pairs)
                cell[0] += len(pairs)
                return fn(pairs, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _replace(self, owner, attribute, make_wrapper):
        raw = owner.__dict__[attribute]
        if isinstance(raw, staticmethod):
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, staticmethod(make_wrapper(raw.__func__)))
            return
        wrapper = make_wrapper(raw)
        if isinstance(owner, type):
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, wrapper)
            return
        # a module-level function: every engine module that imported it
        # holds its own reference
        for module in _engine_modules():
            for name, value in list(vars(module).items()):
                if value is raw:
                    self._saved.append((module, name, raw))
                    setattr(module, name, wrapper)

    def install(self):
        for layer, owner, attribute, size_name, sizer in SPANS:
            self._replace(owner, attribute,
                          lambda fn, l=layer, s=size_name, z=sizer: self._span(fn, l, s, z))
        for name, owner, attribute, amount in COUNTERS:
            self._replace(owner, attribute,
                          lambda fn, n=name, a=amount: self._counter(fn, n, a))

    def uninstall(self):
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
        self._flush()
        self._cells = {}

    def reset_counters(self):
        """Drop every count made so far (the set-up's)."""
        self._flush()
        self.counters = defaultdict(int)

    def _flush(self):
        for name, cell in self._cells.items():
            self.counters[name] += cell[0]
            cell[0] = 0

    # -- results ---------------------------------------------------------------

    def layer_totals(self, sampler, setup):
        """{layer: [calls, self seconds]} of the set-up's spans or of the
        ops', less the time the reference sampler spent inside them."""
        duration = {sid: end - start - sampler.inside(start, end)
                    for sid, _parent, _op, _layer, start, end in self.spans}
        child_time = defaultdict(float)
        for sid, parent, _op, _layer, _start, _end in self.spans:
            child_time[parent] += duration[sid]
        totals = defaultdict(lambda: [0, 0.0])
        for sid, _parent, op, layer, _start, _end in self.spans:
            if (op is None) != setup:
                continue
            totals[layer][0] += 1
            totals[layer][1] += duration[sid] - child_time[sid]
        return totals

    def metrics(self, sampler):
        by_phase = {setup: self.layer_totals(sampler, setup) for setup in (False, True)}
        out = {}
        for name, (unit, (kind, *layers)) in METRICS.items():
            totals = by_phase[name.startswith("modelfile.")]
            if kind == "self":
                value = sum(totals[layer][1] for layer in layers if layer in totals)
            elif kind == "calls":
                value = sum(totals[layer][0] for layer in layers if layer in totals)
            else:
                value = self.counters.get(layers[0], 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, layer, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "layer": layer,
                                     "start": start, "end": end}) + "\n")
