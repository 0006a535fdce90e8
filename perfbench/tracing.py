"""In-memory spans around rmdn's public functions, recorded from outside.

``Tracer.install`` replaces the module-level names that callers resolve at
call time (``rmdn.optim.gradient``, ``rmdn.gradients.forward_pass``, ...)
with wrappers that append one span per call: layer name, parent span, start,
end and the number of observations the call covers. ``uninstall`` puts the
originals back. Per-time-step functions such as ``log_density`` are not
wrapped: a span per step would cost more than the step it measures.

A name is wrapped in the module that looks it up, not only where it is
defined, because ``from .gradients import gradient`` gives ``rmdn.optim`` a
binding of its own.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass

import numpy as np

# (module whose global is replaced, attribute, layer name, index of the
# positional argument holding the series, or None when a call covers no
# observations)
TARGETS = (
    ("rmdn.optim", "train", "optim.train", None),
    ("rmdn.harness", "train", "optim.train", None),
    ("rmdn.optim", "gradient", "gradients.gradient", 0),
    ("rmdn.optim", "forward_pass", "network.forward_pass", 0),
    ("rmdn.gradients", "forward_pass", "network.forward_pass", 0),
    ("rmdn.network", "forward_pass", "network.forward_pass", 0),
    ("rmdn.network", "unroll", "network.unroll", 0),
    ("rmdn.mixture", "nll", "mixture.nll", 0),
    ("rmdn.optim", "nll_arrays", "mixture.nll_arrays", 0),
    ("rmdn.optim", "adam_step", "optim.adam_step", None),
    ("rmdn.garch", "adam_step", "optim.adam_step", None),
    ("rmdn.optim", "flatten_params", "gradients.flatten_params", None),
    ("rmdn.gradients", "flatten_params", "gradients.flatten_params", None),
    ("rmdn.optim", "unflatten_params", "gradients.unflatten_params", None),
    ("rmdn.optim", "apply_mask", "gradients.apply_mask", None),
    ("rmdn.harness", "fit_garch", "garch.fit_garch", 0),
    ("rmdn.harness", "run_benchmark", "harness.run_benchmark", None),
    ("rmdn.harness", "load_model", "harness.load_model", None),
    ("rmdn.garch", "simulate_garch", "garch.simulate_garch", None),
    ("rmdn.data", "simulate_mixture_process", "data.simulate_mixture_process", None),
    ("rmdn.data", "sample_seeds", "data.sample_seeds", None),
)


def _n_obs(series) -> int:
    return int(np.size(getattr(series, "values", series)))


@dataclass
class LayerTotals:
    """Sums over every span of one layer."""

    calls: int = 0
    obs: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects spans while installed; spans survive uninstall."""

    def __init__(self):
        # each span: [name, parent index or -1, start, end, obs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, obs_arg: int | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            obs = _n_obs(args[obs_arg]) if obs_arg is not None else 0
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, obs]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, obs_arg in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, obs_arg))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def totals(self) -> dict[str, LayerTotals]:
        """Per-layer calls, observations, total and self time. Self time is
        a span's duration minus the time its child spans cover; children of
        one span never overlap, since all calls run on one thread."""
        child_s = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, LayerTotals] = {}
        for (name, _, start, end, obs), children in zip(self.spans, child_s):
            t = out.setdefault(name, LayerTotals())
            t.calls += 1
            t.obs += obs
            t.total_s += end - start
            t.self_s += end - start - children
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, start, end, obs) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "start": start, "end": end, "obs": obs}) + "\n")
