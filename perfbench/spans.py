"""Span recorder for the traced run.

The benchmark wraps public functions of the ``ebgp`` modules from outside:
each wrapper replaces a module attribute for the duration of the traced
repetition only, and records one span per call with its name, start, end and
parent.  Nothing inside the program is modified on disk.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name).  The attribute is also replaced in every
# other ebgp module that imported the same function object by name, so
# ``from .inference import posterior_temperature`` call sites are caught too.
TARGETS = (
    ("scenario", "load_scenario", "scenario.load_scenario"),
    ("scenario", "assemble_training_set", "scenario.assemble_training_set"),
    ("model_io", "load_model", "model_io.load_model"),
    ("model_io", "save_model", "model_io.save_model"),
    ("ebm", "temperature_operator", "ebm.temperature_operator"),
    ("ebm", "thermal_response", "ebm.thermal_response"),
    ("ebm", "forcing_response", "ebm.forcing_response"),
    ("kernels", "forcing_gram", "kernels.forcing_gram"),
    ("kernels", "forcing_gram_gradients", "kernels.forcing_gram_gradients"),
    ("kernels", "internal_variability_gram", "kernels.internal_variability_gram"),
    ("inference", "build_prior", "inference.build_prior"),
    ("inference", "fit_hyperparameters", "inference.fit_hyperparameters"),
    ("inference", "mll_and_gradient", "inference.mll_and_gradient"),
    ("inference", "_train_factor", "inference.train_factor"),
    ("inference", "posterior_temperature", "inference.posterior_temperature"),
    ("inference", "posterior_forcing", "inference.posterior_forcing"),
    ("inference", "sample_posterior", "inference.sample_posterior"),
    ("spatial", "fit_pattern_scaling", "spatial.fit_pattern_scaling"),
    ("spatial", "spatial_posterior", "spatial.spatial_posterior"),
    ("spatial", "spatial_prior", "spatial.spatial_prior"),
    ("metrics", "deterministic_scores", "metrics.scores"),
    ("metrics", "probabilistic_scores", "metrics.scores"),
    ("metrics", "spatial_scores", "metrics.scores"),
    ("oracles", "default_verification", "oracles.default_verification"),
    ("cli", "_write_csv", "cli.write_csv"),
    ("cli", "_read_prediction_csv", "cli.read_csv"),
    ("cli", "_read_truth_global", "cli.read_csv"),
    ("cli", "_read_truth_spatial", "cli.read_csv"),
)
# scipy's cholesky as bound in the inference module only: every training
# factorisation and every jitter rung goes through it.
LOCAL_TARGETS = (("inference", "cholesky", "inference.cholesky"),)


class Tracer:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._trace_id = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, new_trace: bool = False):
        if new_trace:
            self._trace_id += 1
        record = {
            "id": len(self.spans),
            "trace": self._trace_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "error": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()

    def _wrapper(self, name, original):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = original(*args, **kwargs)
                except Exception:
                    self.counters[f"{name}.errors"] += 1
                    raise
            self.counters[f"{name}.calls"] += 1
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace the target attributes; ``remove`` restores them."""
        modules = {
            key[len("ebgp."):]: mod
            for key, mod in list(sys.modules.items())
            if key.startswith("ebgp.") and mod is not None
        }
        for targets, everywhere in ((TARGETS, True), (LOCAL_TARGETS, False)):
            for module_name, attr, name in targets:
                home = modules.get(module_name)
                original = getattr(home, attr, None) if home is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                traced = self._wrapper(name, original)
                scope = modules.values() if everywhere else [home]
                for mod in scope:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, value))
                            setattr(mod, key, traced)

    def remove(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()


def _count_load(counters, args, scenario):
    from ebgp.scenario import spatial_companion_path

    path = args[0]
    paths = [path]
    if scenario.spatial_temperature is not None:
        paths.append(spatial_companion_path(path))
    counters["scenario.bytes_read"] += sum(os.path.getsize(p) for p in paths)
    rows = scenario.grid.n_steps
    if scenario.spatial_temperature is not None:
        rows += scenario.spatial_temperature.size
    counters["scenario.rows_parsed"] += rows


def _count_mll(counters, args, result):
    if np.isfinite(result[0]):
        counters["inference.mll_and_gradient.finite"] += 1


HOOKS = {
    "scenario.load_scenario": _count_load,
    "inference.mll_and_gradient": _count_mll,
}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}


def inclusive_totals(spans: list[dict]) -> dict[str, float]:
    """Summed duration per span name, not counting a span nested inside
    another span of the same name twice."""
    by_id = {s["id"]: s for s in spans}
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        parent = s["parent"]
        nested = False
        while parent is not None:
            if by_id[parent]["name"] == s["name"]:
                nested = True
                break
            parent = by_id[parent]["parent"]
        if not nested:
            totals[s["name"]] += s["end"] - s["start"]
    return totals


def within(spans: list[dict], ancestor_name: str, name: str) -> int:
    """Number of ``name`` spans that have an ``ancestor_name`` ancestor."""
    by_id = {s["id"]: s for s in spans}
    count = 0
    for s in spans:
        if s["name"] != name:
            continue
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] == ancestor_name:
                count += 1
                break
            parent = by_id[parent]["parent"]
    return count


def coverage(spans: list[dict]) -> dict[str, float]:
    """Per command: the share of its time spent inside child spans."""
    self_time = self_times(spans)
    spent: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for s in spans:
        if s["parent"] is None:
            spent[s["name"]][0] += s["end"] - s["start"]
            spent[s["name"]][1] += self_time[s["id"]]
    return {name: 1.0 - own / total for name, (total, own) in spent.items() if total > 0}
