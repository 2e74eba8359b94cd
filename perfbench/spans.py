"""Spans around the calls into chebdens's public functions, and the per-layer table.

``Tracer.install`` wraps every public function of the layer modules and
replaces it at each import site inside the package (``density`` imports
``split_mask`` by name, so ``chebdens.density.split_mask`` is wrapped as
well as ``chebdens.splitting.split_mask``).  A span is (id, parent id,
name, start, end, error, annotation); spans are kept in memory and written
out once, at the end of the pass.  Untraced passes never call ``install``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("primes", "splitting", "density", "calculus", "weyl", "bounds", "cli")

HIGH_PRIME = 1 << 26


def _annotate_split_mask(args, result):
    model, primes = args[0], np.asarray(args[1])
    key = getattr(model, "poly", None) or (model.modulus, tuple(sorted(model.residues)))
    return {"n": int(primes.size), "high": int(np.count_nonzero(primes >= HIGH_PRIME)),
            "model": repr(key)}


# name -> function(args, result) giving the span's annotation
ANNOTATE = {
    "splitting.split_mask": _annotate_split_mask,
    "primes.sieve_primes": lambda args, result: {"primes_out": int(len(result))},
    "weyl.enumerated_constants": lambda args, result: {"elements": int(result[0])},
    "weyl.enumerate_weyl_group": lambda args, result: {"elements": len(result)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self.mask_inputs: list[tuple[str, np.ndarray]] = []  # (model, primes) per split_mask
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def _wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            error, note = None, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                if error is None and annotate is not None:
                    note = annotate(args, result)
                    if name == "splitting.split_mask":
                        self.mask_inputs.append((note["model"], np.asarray(args[1])))
                self.spans.append((sid, parent, name, start, end, error, note))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions everywhere the package holds them."""
        wrapped: dict[int, object] = {}  # id of the original -> its wrapper (which keeps it alive)
        for layer in LAYERS:
            module = importlib.import_module(f"chebdens.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "chebdens" and not modname.startswith("chebdens."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])

    def write(self, path, pass_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, start, end, error, note in sorted(self.spans):
                record = {"pass": pass_index, "id": sid, "parent": parent, "name": name,
                          "start": start, "end": end}
                if error:
                    record["error"] = error
                if note:
                    record.update(note)
                fh.write(json.dumps(record) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans."""
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _, _ in spans:
        covered[parent] += end - start
    return {sid: end - start - covered[sid] for sid, _, _, start, end, _, _ in spans}


def module_self_times(spans) -> dict[str, float]:
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for sid, _, name, *_ in spans:
        out[name.split(".", 1)[0]] += own[sid]
    return out


def layer_metrics(tracer: Tracer, cache_info, cli_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see BENCHMARK.json)."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    totals: dict[str, float] = defaultdict(float)
    notes: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    for sid, _, name, start, end, error, note in spans:
        for key in (name, name.split(".", 1)[0]):
            calls[key] += 1
            selfs[key] += own[sid]
            totals[key] += end - start
        if error:
            errors[name + ":" + error] += 1
        for field, value in (note or {}).items():
            if isinstance(value, int):
                notes[f"{name}.{field}"] += value
    per_model: dict[str, list[np.ndarray]] = defaultdict(list)
    for model, primes in tracer.mask_inputs:
        per_model[model].append(primes)
    classified = sum(int(a.size) for arrays in per_model.values() for a in arrays)
    distinct = sum(int(np.unique(np.concatenate(arrays)).size) for arrays in per_model.values())
    hits, misses = (cache_info.hits, cache_info.misses) if cache_info else (0, 0)
    enum = ("weyl.enumerated_constants", "weyl.enumerate_weyl_group")
    return {
        "splitting.mask_calls": calls["splitting.split_mask"],
        "splitting.mask_primes": notes["splitting.split_mask.n"],
        "splitting.mask_high_primes": notes["splitting.split_mask.high"],
        "splitting.mask_self_s": selfs["splitting.split_mask"],
        "splitting.cycle_calls": calls["splitting.frobenius_cycle_type"],
        "splitting.cycle_self_s": selfs["splitting.frobenius_cycle_type"],
        "splitting.scalar_calls": calls["splitting.splits_completely"],
        "splitting.scalar_self_s": selfs["splitting.splits_completely"],
        "density.calls": calls["density"],
        "density.self_s": selfs["density"],
        "density.useful_ratio": distinct / classified if classified else 1.0,
        "primes.calls": calls["primes"],
        "primes.self_s": selfs["primes"],
        "primes.primes_out": notes["primes.sieve_primes.primes_out"],
        "primes.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "bounds.pipeline_calls": calls["bounds.csp_bound_pipeline"],
        "bounds.pipeline_self_s": selfs["bounds.csp_bound_pipeline"],
        "bounds.tower_count_s": totals["bounds.minimal_tower_count"],
        "bounds.refusals": errors["bounds.csp_bound_pipeline:ResourceLimitError"],
        "weyl.enum_calls": sum(calls[n] for n in enum),
        "weyl.enum_elements": sum(notes[f"{n}.elements"] for n in enum),
        "weyl.enum_self_s": sum(selfs[n] for n in enum),
        "calculus.calls": calls["calculus"],
        "calculus.self_s": selfs["calculus"],
        "cli.calls": calls["cli.main"],
        "cli.self_s": selfs["cli"],
        "cli.bytes_out": cli_bytes,
    }
