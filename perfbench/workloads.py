"""Workload inputs, CLI configs and output checks for the isoshap benchmark.

The inputs follow the corruption geometry of ``tests/synthbench.py``: 100
reference rows with 10 corrupted (4 singletons plus 3 co-located pairs that
share one offset) and 25 clean rows, 125 rows in one CSV. The CLI splits them
at ``test_fraction`` 0.2 into 100 train and 25 test rows. The generator is
reimplemented here with numpy alone, so the inputs do not move when the
program's own generator changes; for a given seed it writes the same values
as ``synthbench.corrupted_benchmark(seed)``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

BBOX = (40.0, 50.0, -10.0, 10.0)
NOISE_SD = 0.25
CORRUPT_MAGNITUDE = 8.0
EARTH_RADIUS_KM = 6371.0088
N_TRAIN_ROWS = 100
N_TEST_ROWS = 25
TEST_FRACTION = 0.2
FEATURES = ("d13C", "d2H")

KERNEL = {"family": "exponential", "lengthscale_km": 500.0, "signal_variance": 2.0}
NOISE_VARIANCE = NOISE_SD**2
GRID = {"bbox": [40.0, 50.0, -10.0, 10.0], "resolution_deg": 0.5}  # 20 x 40 = 800 cells
# One forest permutation already costs ~90 fits of 200 trees (about 12 s on a
# 2-core x86 box); the budget is the smallest the estimator accepts.
FOREST_PERMUTATIONS = 1

# Why each workload exists is in BENCHMARK.json and NOTES.md.
WORKLOADS = ("gp-fwd-tmc", "gp-bwd-loo-select", "forest-bwd-tmc")


# ---------------------------------------------------------------------------
# Input generator
# ---------------------------------------------------------------------------

def _norm_lon(lon: float) -> float:
    return ((lon + 180.0) % 360.0) - 180.0


def _field(j: int, lat: float, lon: float) -> float:
    # The first two default isotope fields (d13C, d2H), evaluated term by term
    # in the same order as the program's generator so the values match bit
    # for bit.
    if j == 0:
        terms = (1.0 * (0.08 * lat + 0.0 * lon), 1.5 * math.sin(0.0 * lat + math.pi / 40.0 * lon + 0.0))
        return -26.0 + sum(terms)
    terms = (
        1.0 * (-0.5 * lat + 0.12 * lon),
        4.0 * math.sin(math.pi / 60.0 * lat + 0.0 * lon + 0.0),
        2.5 * math.sin(math.pi / 90.0 * lat + math.pi / 50.0 * lon + 0.7),
    )
    return -60.0 + sum(terms)


def _clean_rows(n: int, seed: int, prefix: str) -> list[list]:
    rng = np.random.default_rng(seed)
    lat_min, lat_max, lon_min, lon_max = BBOX
    lats = rng.uniform(lat_min, lat_max, n)
    lons = rng.uniform(lon_min, lon_max, n)
    species = rng.choice(np.array(("sp_a", "sp_b"), dtype=object), size=n)
    values = np.empty((n, len(FEATURES)))
    for j in range(len(FEATURES)):
        noise = rng.normal(0.0, NOISE_SD, n)
        for i in range(n):
            values[i, j] = _field(j, lats[i], lons[i]) + noise[i]
    return [
        [f"{prefix}s{i:04d}", float(lats[i]), _norm_lon(float(lons[i])), str(species[i])]
        + [float(v) for v in values[i]]
        for i in range(n)
    ]


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dlat = p2 - p1
    dlon = math.radians(lon2) - math.radians(lon1)
    h = math.sin(dlat * 0.5) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlon * 0.5) ** 2
    return EARTH_RADIUS_KM * 2.0 * math.atan2(math.sqrt(h), math.sqrt(max(0.0, 1.0 - h)))


def _corrupt(rows: list[list], seed: int, n_singletons: int = 4, n_pairs: int = 3) -> list[str]:
    """Shift 10% of rows off-field in place; returns the sorted corrupted ids."""
    rng = np.random.default_rng(3000 + seed)
    anchors = rng.choice(len(rows), size=n_singletons + n_pairs, replace=False)
    corrupted: dict[int, np.ndarray] = {}

    def offsets() -> np.ndarray:
        return rng.choice([-1.0, 1.0], size=len(FEATURES)) * CORRUPT_MAGNITUDE * NOISE_SD

    for a in anchors[:n_singletons]:
        corrupted[int(a)] = offsets()
    for a in anchors[n_singletons:]:
        shared = offsets()
        corrupted[int(a)] = shared
        # The nearest unclaimed neighbour gets the identical offset.
        lat, lon = rows[a][1], rows[a][2]
        _, partner = min(
            (_haversine_km(lat, lon, r[1], r[2]), i)
            for i, r in enumerate(rows)
            if i != a and i not in corrupted
        )
        corrupted[partner] = shared
    for i, shift in corrupted.items():
        for j in range(len(FEATURES)):
            rows[i][4 + j] = float(rows[i][4 + j] + shift[j])
    return sorted(rows[i][0] for i in corrupted)


def write_inputs(seed: int, directory: Path) -> dict:
    """Write ``dataset.csv`` for ``seed``; returns the facts the checks need."""
    rows = _clean_rows(N_TRAIN_ROWS, 1000 + seed, "")
    corrupted = _corrupt(rows, seed)
    rows += _clean_rows(N_TEST_ROWS, 2000 + seed, "t")
    path = directory / "dataset.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "latitude", "longitude", "species", *FEATURES])
        for r in rows:
            writer.writerow([r[0], repr(r[1]), repr(r[2]), r[3]] + [repr(v) for v in r[4:]])
    # The CLI's split: a permutation from seed + 1; its first floor(N * 0.2)
    # rows are the test side.
    n = len(rows)
    perm = np.random.default_rng(seed + 1).permutation(n)
    test_idx = set(perm[: int(n * TEST_FRACTION)].tolist())
    train_ids = sorted(r[0] for i, r in enumerate(rows) if i not in test_idx)
    return {
        "train_ids": train_ids,
        "corrupted_in_train": sorted(set(corrupted) & set(train_ids)),
    }


def config(workload: str, seed: int) -> dict:
    """CLI config; paths are relative to the input's directory, where the CLI
    runs, so the config hash in the outputs is the same on every run."""
    cfg: dict = {
        "seed": seed,
        "out": "out",
        "dataset": {"csv": "dataset.csv", "test_fraction": TEST_FRACTION},
    }
    if workload == "gp-fwd-tmc":
        cfg["model"] = {"kind": "gp", "direction": "forward", "kernel": KERNEL,
                        "noise_variance": NOISE_VARIANCE}
        cfg["valuation"] = {"method": "tmc"}
    elif workload == "gp-bwd-loo-select":
        cfg["model"] = {"kind": "gp", "direction": "backward", "kernel": KERNEL,
                        "noise_variance": NOISE_VARIANCE}
        cfg["grid"] = GRID
        cfg["valuation"] = {"method": "loo"}
        cfg["selection"] = {"mode": "remove_low", "patience": 5}
    elif workload == "forest-bwd-tmc":
        cfg["model"] = {"kind": "forest", "direction": "backward"}
        cfg["valuation"] = {"method": "tmc", "max_permutations": FOREST_PERMUTATIONS}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cfg


def command(workload: str) -> str:
    return "select" if workload == "gp-bwd-loo-select" else "value"


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def output_files(workload: str) -> tuple[str, ...]:
    return ("trace.json",) if command(workload) == "select" else ("values.json",)


def check_outputs(workload: str, out: Path, facts: dict) -> dict:
    """Check one run's outputs; returns its quality figures: ``hits`` of the
    ``k`` corrupted train rows among the k lowest-valued (``value``) or the
    first k removed (``select``), and for ``select`` the RMSE reduction.

    Raises CheckFailed when an output is wrong.
    """
    train_ids = facts["train_ids"]
    corrupted = set(facts["corrupted_in_train"])
    k = len(corrupted)
    if command(workload) == "select":
        trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
        steps = trace["steps"]
        _require(len(steps) >= 1 and steps[0]["removed_ids"] == [], "step 0 must remove nothing")
        _require(steps[0]["train_size"] == len(train_ids), "step 0 train size != train rows")
        rmses = [s["rmse_after"] for s in steps]
        _require(all(isinstance(r, float) and math.isfinite(r) for r in rmses), "non-finite RMSE")
        removed = [i for s in steps for i in s["removed_ids"]]
        _require(len(set(removed)) == len(removed), "an id was removed twice")
        _require(set(removed) <= set(train_ids), "removed ids outside train")
        for i, s in enumerate(steps):
            _require(s["train_size"] == len(train_ids) - sum(len(t["removed_ids"]) for t in steps[: i + 1]),
                     f"step {i}: train size does not match removals")
        with (out / "map.csv").open(encoding="utf-8") as fh:
            rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
        _require(sorted(r[0] for r in rows[1:]) == train_ids, "map.csv ids do not match the train split")
        initial, best = rmses[0], min(rmses)
        return {
            "hits": len(corrupted & set(removed[:k])),
            "k": k,
            "rmse_reduction_pct": 100.0 * (initial - best) / initial,
        }

    payload = json.loads((out / "values.json").read_text(encoding="utf-8"))
    values = payload["values"]
    _require(sorted(values) == train_ids, "value ids do not match the train split")
    _require(all(isinstance(v, float) and math.isfinite(v) for v in values.values()),
             "non-finite value")
    summary = payload["summary"]
    v_full, v_empty = summary["v_full"], summary["v_empty"]
    _require(math.isfinite(v_full) and math.isfinite(v_empty), "non-finite v_full/v_empty")
    total = math.fsum(values.values())
    _require(abs(total - (v_full - v_empty)) < 0.01 * abs(v_full),
             f"efficiency: sum of values {total!r} vs v_full - v_empty {v_full - v_empty!r}")
    _require(payload["permutations_used"] >= 1, "no permutations used")
    lowest = sorted(values, key=lambda i: (values[i], i))[:k]
    return {"hits": len(corrupted & set(lowest)), "k": k}
