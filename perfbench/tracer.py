"""Run the isoshap CLI with a span around every call into each layer.

Usage: python tracer.py SPANS.npz <isoshap CLI arguments...>

The spans are recorded from here, around the public functions of each
module; the program itself is not changed. A function is patched wherever a
caller looks it up, that is in every ``isoshap`` module global bound to it, so
``isoshap.valuation.fit_gp`` and ``isoshap.isoscape.pairwise_distance_km`` are
wrapped as well as the definitions. Each span has a name, a start, an end,
its parent span and one integer attribute (grid cells computed, subset size,
nodes grown, ...). Spans stay in memory and are written to SPANS.npz when the
CLI returns; ``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute). Methods are patched on their class.
FUNCTIONS = (
    ("geo.pairwise_distance_km", "geo", "pairwise_distance_km"),
    ("geo.great_circle_distance", "geo", "great_circle_distance"),
    ("dataset.load_csv", "dataset", "load_csv"),
    ("isoscape.fit_gp", "isoscape", "fit_gp"),
    ("isoscape.forward_rmse", "isoscape", "forward_rmse"),
    ("isoscape.posterior", "isoscape", "posterior"),
    ("isoscape.mean_posterior_rmse", "isoscape", "mean_posterior_rmse"),
    ("forest.fit_forest", "forest", "fit_forest"),
    ("forest.forest_rmse", "forest", "forest_rmse"),
    ("valuation.utility", "valuation", "utility"),
    ("valuation.tmc_shapley_values", "valuation", "tmc_shapley_values"),
    ("selection.iterative_select", "selection", "iterative_select"),
)
METHODS = (
    ("dataset.validate", "dataset", "Dataset", "__post_init__"),
    ("dataset.feature_matrix", "dataset", "Dataset", "feature_matrix"),
)
# Spans made by the value-function wrapper, not by a patched function.
LOOKUP = "valuation.value_lookup"
PERMUTATION = "valuation.permutation"
NAMES = tuple(f[0] for f in FUNCTIONS) + tuple(m[0] for m in METHODS) + (LOOKUP, PERMUTATION)


def _count_nodes(node) -> int:
    if node.left is None:
        return 1
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)


# The integer attribute recorded per span, computed from (args, result).
ATTRIBUTES = {
    "geo.pairwise_distance_km": lambda args, r: int(r.size),
    "isoscape.fit_gp": lambda args, r: int(any(gp.jitter > 0.0 for gp in r.per_feature.values())),
    "forest.fit_forest": lambda args, r: sum(_count_nodes(t) for t in r.trees),
    "selection.iterative_select": lambda args, r: len(r.steps) - 1,
}


class Tracer:
    """Closed spans as (id, name, parent id, start, end, attr) tuples; a stack
    of open span ids gives each new span its parent. Tuples of numbers, which
    the garbage collector stops tracking, so the ~200k records of a run do
    not lengthen its passes."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.stack: list[int] = [-1]
        self.ids = itertools.count()
        self.tmc_depth = 0
        self.open_permutation: tuple[int, int, float] | None = None

    def span(self, name: int, fn, attr_of=None):
        """``fn`` wrapped so that every call records one span."""
        records, stack, ids = self.records, self.stack, self.ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = next(ids)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            attr = 0 if attr_of is None else attr_of(args, result)
            records.append((idx, name, parent, start, end, attr))
            return result

        return wrapper

    def start_permutation(self) -> None:
        self.end_permutation()
        idx = next(self.ids)
        self.open_permutation = (idx, self.stack[-1], perf_counter())
        self.stack.append(idx)

    def end_permutation(self) -> None:
        if self.open_permutation is not None:
            idx, parent, start = self.open_permutation
            self.records.append((idx, NAMES.index(PERMUTATION), parent, start, perf_counter(), 0))
            self.stack.pop()
            self.open_permutation = None

    def save(self, path: str) -> None:
        cols = list(zip(*self.records)) if self.records else [()] * 6
        np.savez(
            path,
            **{k: np.array(c, dtype=t) for k, c, t in zip(
                ("id", "name", "parent", "start", "end", "attr"), cols,
                (np.int64, np.int32, np.int64, float, float, np.int64),
            )},
        )


def _wrap(tracer: Tracer, span: str, fn):
    return tracer.span(NAMES.index(span), fn, ATTRIBUTES.get(span))


def _wrap_tmc(tracer: Tracer, fn):
    @functools.wraps(fn)
    def driver(*args, **kwargs):
        tracer.tmc_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.tmc_depth -= 1
            tracer.end_permutation()

    return _wrap(tracer, "valuation.tmc_shapley_values", driver)


def _wrap_value_fn_factory(tracer: Tracer, make_value_fn):
    """Wrap every value function the estimators get, to count lookups.

    A lookup's attribute is its subset size. Inside the TMC driver a lookup
    of size 1 is the first position of a permutation (the walk only grows
    its prefix), which opens a new permutation span; the permutation ends at
    the next one or when the driver returns.
    """
    lookup = NAMES.index(LOOKUP)

    @functools.wraps(make_value_fn)
    def wrapper(*args, **kwargs):
        ids, value = make_value_fn(*args, **kwargs)
        traced = tracer.span(lookup, value, lambda args, r: args[0].bit_count())

        def traced_value(mask: int) -> float:
            if tracer.tmc_depth and mask.bit_count() == 1:
                tracer.start_permutation()
            return traced(mask)

        return ids, traced_value

    return wrapper


def install(tracer: Tracer) -> None:
    import importlib

    import isoshap
    import isoshap.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [isoshap] + [
        m for name, m in sorted(sys.modules.items()) if name.startswith("isoshap.")
    ]
    replacements = []
    for span, module, attr in FUNCTIONS:
        fn = getattr(importlib.import_module(f"isoshap.{module}"), attr)
        if span == "valuation.tmc_shapley_values":
            replacements.append((fn, _wrap_tmc(tracer, fn)))
        else:
            replacements.append((fn, _wrap(tracer, span, fn)))
    factory = isoshap.valuation.make_subset_value_fn
    replacements.append((factory, _wrap_value_fn_factory(tracer, factory)))
    for original, wrapped in replacements:
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, wrapped)
    for span, module, cls, attr in METHODS:
        klass = getattr(importlib.import_module(f"isoshap.{module}"), cls)
        setattr(klass, attr, _wrap(tracer, span, getattr(klass, attr)))


def summarize(path, n_train: int) -> dict:
    """Per-layer metrics from one traced run's spans."""
    with np.load(path) as z:
        span_id, name, parent, start, end, attr = (
            z[k] for k in ("id", "name", "parent", "start", "end", "attr")
        )
    dur = end - start
    ids = {n: i for i, n in enumerate(NAMES)}

    def sel(span: str) -> np.ndarray:
        return name == ids[span]

    def calls(span: str) -> int:
        return int(sel(span).sum())

    def seconds(span: str) -> float:
        return float(dur[sel(span)].sum())

    def children_of(mask: np.ndarray) -> np.ndarray:
        return np.isin(parent, span_id[mask])

    utility_ms = np.sort(dur[sel("valuation.utility")]) * 1e3
    lookups = sel(LOOKUP)
    misses = int((children_of(lookups) & sel("valuation.utility")).sum())
    perms = sel(PERMUTATION)
    walked = int((children_of(perms) & lookups).sum())
    select = sel("selection.iterative_select")

    def pct(q: float) -> float:
        return float(np.quantile(utility_ms, q)) if utility_ms.size else 0.0

    return {
        "geo.pairwise_distance_calls": calls("geo.pairwise_distance_km"),
        "geo.pairwise_distance_s": seconds("geo.pairwise_distance_km"),
        "geo.pairwise_distance_cells": int(attr[sel("geo.pairwise_distance_km")].sum()),
        "geo.great_circle_calls": calls("geo.great_circle_distance"),
        "dataset.load_csv_s": seconds("dataset.load_csv"),
        "dataset.validate_calls": calls("dataset.validate"),
        "dataset.validate_s": seconds("dataset.validate"),
        "dataset.feature_matrix_s": seconds("dataset.feature_matrix"),
        "isoscape.fit_gp_calls": calls("isoscape.fit_gp"),
        "isoscape.fit_gp_s": seconds("isoscape.fit_gp"),
        "isoscape.jittered_fits": int(attr[sel("isoscape.fit_gp")].sum()),
        "isoscape.forward_rmse_s": seconds("isoscape.forward_rmse"),
        "isoscape.posterior_calls": calls("isoscape.posterior"),
        "isoscape.posterior_s": seconds("isoscape.posterior"),
        "isoscape.mean_posterior_rmse_s": seconds("isoscape.mean_posterior_rmse"),
        "forest.fit_forest_calls": calls("forest.fit_forest"),
        "forest.fit_forest_s": seconds("forest.fit_forest"),
        "forest.nodes": int(attr[sel("forest.fit_forest")].sum()),
        "forest.forest_rmse_s": seconds("forest.forest_rmse"),
        "valuation.utility_calls": int(utility_ms.size),
        "valuation.utility_s": seconds("valuation.utility"),
        "valuation.utility_ms_p50": pct(0.5),
        "valuation.utility_ms_p90": pct(0.9),
        "valuation.value_lookups": int(lookups.sum()),
        "valuation.cache_hit_ratio": 1.0 - misses / lookups.sum() if lookups.any() else 0.0,
        "valuation.truncated_fraction": 1.0 - walked / (perms.sum() * n_train) if perms.any() else 0.0,
        "valuation.permutations_used": int(perms.sum()),
        "valuation.permutation_ms": statistics.median(dur[perms] * 1e3) if perms.any() else 0.0,
        "selection.steps": int(attr[select].sum()),
        "selection.select_s": float(dur[select].sum()),
        "selection.self_s": float(dur[select].sum() - dur[children_of(select)].sum()),
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from isoshap.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
