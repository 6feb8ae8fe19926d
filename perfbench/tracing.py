"""Span recorder for the traced run: wraps heinegas's public functions.

Each wrapped call records a span (id, name, start, end, parent) in memory
and adds its counts; nothing inside the package changes. Functions are
wrapped at every name they are looked up under, because ``heinegas.cli``
and ``heinegas.limits`` import them by name: ``heinegas.cli.joint_mgf`` is
a different binding from ``heinegas.engine.joint_mgf``.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import heinegas
from heinegas import cli, engine, heine, limits, potentials

_MODULES = (heinegas, cli, engine, heine, limits, potentials)


def _dp_cells(result):
    return {"engine.exact_count_law.dp_cells": math.prod(c + 1 for c in result.cap)}


def _moduli(result):
    return {"engine.sample_moduli.moduli": int(result.radii.size)}


def _pmf_cells(result):
    return {"heine.pmf_table.cells": len(result.entries)}


# (span name, functions, counts taken from the return value)
_FUNCTIONS = (
    ("potentials.build", (potentials.build_case1, potentials.build_case2, potentials.ginibre), None),
    ("potentials.droplet_data", (potentials.droplet_data,), None),
    ("engine.joint_mgf", (engine.joint_mgf,), None),
    ("engine.exact_count_law", (engine.exact_count_law,), _dp_cells),
    ("engine.sample_moduli", (engine.sample_moduli,), _moduli),
    ("engine.standard_regions", (engine.standard_regions,), None),
    ("limits.case1", (limits.case1,), None),
    ("limits.case2", (limits.case2,), None),
    ("limits.case2_predicted_law", (limits.case2_predicted_law,), None),
    ("limits.case2_predicted_mgf", (limits.case2_predicted_mgf,), None),
    ("heine.pmf_table", (heine.pmf_table,), _pmf_cells),
    ("heine.convolve_mapped", (heine.convolve_mapped,), None),
    ("heine.tv_distance", (heine.tv_distance,), None),
    ("heine.mgf", (heine.mgf,), None),
    ("cli.cmd_converge", (cli.cmd_converge,), None),
)

# CountLaw methods, wrapped on the class (covariance_matrix calls mean, so
# moment spans nest; self time counts each interval once)
_METHODS = (
    ("heine.countlaw_moments", ("mean", "covariance_matrix")),
    ("heine.countlaw_json", ("to_json", "to_json_dict", "from_json", "from_json_dict")),
)

SPAN_NAMES = tuple(name for name, _, _ in _FUNCTIONS) + tuple(name for name, _ in _METHODS)


class Tracer:
    """Spans and counts of the calls made since the last ``reset``."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if count is not None:
                for key, value in count(result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of the traced functions in heinegas."""
        for name, fns, count in _FUNCTIONS:
            for fn in fns:
                traced = self._wrap(fn, name, count)
                for module in _MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, traced)
        for name, methods in _METHODS:
            for attr in methods:
                raw = vars(heine.CountLaw)[attr]
                if isinstance(raw, classmethod):
                    traced = classmethod(self._wrap(raw.__func__, name, None))
                else:
                    traced = self._wrap(raw, name, None)
                setattr(heine.CountLaw, attr, traced)

    def self_times(self) -> dict:
        """Seconds per span name: each span's duration minus its children's."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {name: 0.0 for name in SPAN_NAMES}
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def covered(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)
