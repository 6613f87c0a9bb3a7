"""End-to-end and per-layer benchmark of ``isoshap value`` / ``isoshap select``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs the real CLI in a child process on the three fixed
synthbench inputs (generator seeds 0, 1 and 2; see workloads.py). The inputs
are fixed because the cost of one input swings up to 8x between generator
seeds (forest TMC truncation: 2 s to 17 s), which would hide any regression
smaller than that; ``--seed`` sets the order in which the inputs run, the
input of the traced run and the rows the LOO spot check uses.

``--trace 0`` runs the set-up probes, then sweeps over the three inputs and
reports the end-to-end metrics. ``--trace 1`` alternates untraced and traced
runs of one input (tracer.py) and reports the per-layer metrics plus the
tracing overhead. The number of sweeps or pairs is as many as fitted in
``--seconds`` at the seed commit (see SWEEP_S), so that a faster program
takes the same number of samples and finishes early. Both check every
output. The last line of standard output is the JSON result; before it come
a readable report and a ``record {...}`` line with the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import workloads
from workloads import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = WORK / "digests.json"
INPUT_SEEDS = (0, 1, 2)
SETUP_PROBES = 7
DEADLINE_S = 170.0
# Seconds one sweep over the three inputs took at the seed commit (2-core x86
# box). Fixing the repeat count from these, rather than from the time a run
# takes, keeps the number of samples per input the same for a parent and a
# faster change.
SWEEP_S = {"gp-fwd-tmc": 17.0, "gp-bwd-loo-select": 37.0, "forest-bwd-tmc": 41.0}
# The program's matrices are at most 800 x 100: a second BLAS thread does not
# make it faster, but its spinning doubles the spread of the GP wall times on
# a shared 2-core box.
BLAS_THREADS = "1"
# A LOO value recomputed here sums the same floats in another order.
LOO_RTOL = 1e-9


class Child(NamedTuple):
    """One finished child process."""

    wall_s: float
    rss_mb: float
    code: int


class Runner:
    """Starts the child processes of one benchmark run, one at a time, and
    counts the attempted and failed ones."""

    def __init__(self, env: dict, deadline: float) -> None:
        self.env = env
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def spawn(self, argv: list[str], cwd: Path) -> Child:
        limit = self.deadline - perf_counter()
        if limit <= 0:
            raise TimeoutError("benchmark deadline reached")
        self.attempted += 1
        with (cwd / "stdout.txt").open("wb") as out, (cwd / "stderr.txt").open("wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)
        if child.code != 0:
            self.fail(f"{argv[1:3]} in {cwd.name} exited {child.code}: "
                      f"{(cwd / 'stderr.txt').read_text()[-500:]}")
        return child

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def repeats(seconds: float, cost_s: float) -> int:
    """How many measurements of ``cost_s`` seconds fit in ``seconds``, at
    least one."""
    return max(1, int(seconds // cost_s))


class Input(NamedTuple):
    seed: int
    dir: Path
    facts: dict


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_rerun(out: Path, key: str, names: tuple[str, ...]) -> None:
    """Outputs must be byte-identical to every earlier run of the same
    program source, toolchain, workload and input (the CLI's rerun
    contract)."""
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    added = False
    for name in names:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        first = stored.setdefault(f"{key}/{name}", digest)
        added |= first is digest
        if first != digest:
            raise CheckFailed(f"{name} differs from an earlier run of the same input")
    if added:
        tmp = DIGESTS.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        os.replace(tmp, DIGESTS)


def cli_run(workload: str, runner: Runner, inp: Input, key: str,
            tracer_argv: tuple[str, ...] = ()) -> tuple[Child, dict] | None:
    """One CLI run, under the tracer when ``tracer_argv`` is given, with its
    output checks: (child, quality figures), or None when it failed."""
    out = inp.dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, *(tracer_argv or ("-m", "isoshap")),
            workloads.command(workload), "--config", "cfg.json"]
    child = runner.spawn(argv, inp.dir)
    if child.code != 0:
        return None
    try:
        quality = workloads.check_outputs(workload, out, inp.facts)
        check_rerun(out, f"{key}/{inp.seed}", workloads.output_files(workload))
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        runner.fail(f"input {inp.seed}: output check: {exc!r}")
        return None
    return child, quality


def spot_check_loo(inp: Input, seed: int) -> None:
    """Recompute a few leave-one-out utilities through the public ``utility``.

    Step 1 of the select trace removes the lowest-LOO row r; its RMSE must be
    -v(D minus r), step 0's must be -v(D), and r's LOO value must not exceed
    that of two other rows picked by the seed.
    """
    from isoshap.valuation import utility

    from setup_probe import prepare

    cfg = json.loads((inp.dir / "cfg.json").read_text())
    cfg["dataset"]["csv"] = str(inp.dir / "dataset.csv")
    train, spec = prepare(cfg)
    steps = json.loads((inp.dir / "out" / "trace.json").read_text())["steps"]
    ids = list(train.ids())

    def v_without(i: str) -> float:
        return utility(spec, train.subset([j for j in ids if j != i]))

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= LOO_RTOL * abs(b)

    v_full = utility(spec, train)
    if not close(-steps[0]["rmse_after"], v_full):
        raise CheckFailed("step 0 RMSE is not -v(D)")
    if len(steps) < 2:
        return
    first = steps[1]["removed_ids"][0]
    v_first = v_without(first)
    if not close(-steps[1]["rmse_after"], v_first):
        raise CheckFailed("step 1 RMSE is not -v(D minus removed row)")
    others = sorted(set(ids) - {first})
    for k in (seed % len(others), (seed * 7 + 3) % len(others)):
        if v_full - v_first > v_full - v_without(others[k]) + LOO_RTOL * abs(v_full):
            raise CheckFailed(f"row {first} removed first but {others[k]} has a lower LOO value")


def toolchain(env: dict) -> dict:
    """What besides the program source decides its output bytes."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
    }


def run_record(seed: int, env: dict) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = res.stdout.strip() or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **toolchain(env),
        "commit": commit,
        "source_hash": _source_hash(),
        "seed": seed,
        "input_seeds": list(INPUT_SEEDS),
    }


def bench_end_to_end(args, runner: Runner, inputs: list[Input], key: str):
    """Set-up probes, then timed sweeps over the inputs."""
    setup = []
    for p in range(SETUP_PROBES):
        inp = inputs[p % len(inputs)]
        child = runner.spawn([sys.executable, str(BENCH / "setup_probe.py"), "cfg.json"], inp.dir)
        if child.code == 0:
            setup.append(child.wall_s)

    runs: dict[int, list[Child]] = {inp.seed: [] for inp in inputs}
    quality: dict[int, dict] = {}
    sweeps = repeats(args.seconds, SWEEP_S[args.workload])
    for _ in range(sweeps):
        for inp in inputs:
            result = cli_run(args.workload, runner, inp, key)
            if result:
                runs[inp.seed].append(result[0])
                quality.setdefault(inp.seed, result[1])

    if workloads.command(args.workload) == "select":
        for inp in inputs:
            if inp.seed in quality:
                try:
                    spot_check_loo(inp, args.seed)
                except CheckFailed as exc:
                    runner.fail(f"input {inp.seed}: LOO spot check: {exc}")

    if not setup or not all(runs.values()):
        return None
    wall = {ds: statistics.median(c.wall_s for c in cs) for ds, cs in runs.items()}
    hits = sum(q["hits"] for q in quality.values())
    k = sum(q["k"] for q in quality.values())
    metrics = {
        "wall_s": {"value": statistics.fmean(wall.values()), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": max(c.rss_mb for cs in runs.values() for c in cs), "unit": "MB"},
        "corrupt_recall": {"value": hits / k, "unit": "ratio"},
    }
    extra = {
        "cli_runs": sum(map(len, runs.values())),
        "sweeps": sweeps,
        "input_wall_s": wall,
        "wall_max_s": max(c.wall_s for cs in runs.values() for c in cs),
        "fail_ratio": runner.failed / runner.attempted,
    }
    if workloads.command(args.workload) == "select":
        extra["rmse_reduction_pct"] = statistics.fmean(q["rmse_reduction_pct"] for q in quality.values())
    report = [
        f"{extra['cli_runs']} CLI runs in {sweeps} sweep(s); per-input median wall "
        + ", ".join(f"input {ds}: {w:.3f} s" for ds, w in wall.items()),
        f"wall_s             {metrics['wall_s']['value']:.4f} s   mean over inputs of the per-input median",
        f"wall_max_s         {extra['wall_max_s']:.4f} s   slowest CLI run",
        f"setup_s            {metrics['setup_s']['value']:.4f} s   median of {len(setup)} probes",
        f"peak_rss_mb        {metrics['peak_rss_mb']['value']:.1f} MB",
        f"fail_ratio         {runner.failed}/{runner.attempted} ratio",
        f"corrupt_recall     {hits / k:.4f} ratio   ({hits}/{k} corrupted train rows ranked lowest)",
    ]
    if "rmse_reduction_pct" in extra:
        report.append(f"rmse_reduction_pct {extra['rmse_reduction_pct']:.3f} %   mean over inputs")
    return metrics, report, extra


def coverage_errors(workload: str, layer: dict, permutations_used: int | None) -> list[str]:
    """Spans the workload must produce, and spans it must not."""
    fires = ["dataset.load_csv_s", "dataset.validate_calls", "dataset.feature_matrix_s",
             "valuation.utility_calls", "valuation.value_lookups"]
    if workload == "gp-fwd-tmc":
        fires += ["geo.pairwise_distance_calls", "isoscape.fit_gp_calls", "isoscape.forward_rmse_s",
                  "valuation.permutations_used"]
        absent = ["isoscape.posterior_calls", "isoscape.mean_posterior_rmse_s",
                  "forest.fit_forest_calls", "selection.steps"]
    elif workload == "gp-bwd-loo-select":
        fires += ["geo.pairwise_distance_calls", "isoscape.fit_gp_calls", "isoscape.posterior_calls",
                  "isoscape.mean_posterior_rmse_s", "selection.steps"]
        absent = ["isoscape.forward_rmse_s", "forest.fit_forest_calls", "valuation.permutations_used"]
    else:
        fires += ["forest.fit_forest_calls", "forest.nodes", "forest.forest_rmse_s",
                  "valuation.permutations_used"]
        absent = ["isoscape.fit_gp_calls", "isoscape.forward_rmse_s", "isoscape.posterior_calls",
                  "isoscape.mean_posterior_rmse_s", "geo.pairwise_distance_calls", "selection.steps"]
    errors = [f"{m} never fired" for m in fires if not layer[m] > 0]
    errors += [f"{m} fired but was predicted absent" for m in absent if layer[m] != 0]
    if permutations_used is not None and layer["valuation.permutations_used"] != permutations_used:
        errors.append(f"{layer['valuation.permutations_used']} permutation spans but "
                      f"values.json reports {permutations_used}")
    return errors


def bench_traced(args, runner: Runner, inputs: list[Input], key: str):
    """Alternate untraced and traced runs of one input."""
    import tracer

    inp = inputs[0]
    spans = inp.dir / "spans.npz"
    untraced, traced, layers = [], [], []
    pairs = repeats(args.seconds, 2 * SWEEP_S[args.workload] / len(inputs))
    for _ in range(pairs):
        result = cli_run(args.workload, runner, inp, key)
        if result:
            untraced.append(result[0].wall_s)
        result = cli_run(args.workload, runner, inp, key, (str(BENCH / "tracer.py"), str(spans)))
        if result:
            traced.append(result[0].wall_s)
            layer = tracer.summarize(spans, len(inp.facts["train_ids"]))
            perms = None
            if workloads.command(args.workload) == "value":
                perms = json.loads((inp.dir / "out" / "values.json").read_text())["permutations_used"]
            errors = coverage_errors(args.workload, layer, perms)
            if errors:
                runner.fail(f"input {inp.seed}: trace coverage: {'; '.join(errors)}")
            layers.append(layer)
    if not untraced or not layers:
        return None
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: {"value": statistics.median_low(layer[name] for layer in layers), "unit": units[name]}
               for name in layers[0]}
    wall = statistics.median(traced)
    overhead = wall - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": units["trace.overhead_s"]}
    report = [f"traced input {inp.seed}: {pairs} pair(s); untraced {statistics.median(untraced):.4f} s, "
              f"traced {wall:.4f} s"]
    for name, m in metrics.items():
        share = f"  ({100.0 * m['value'] / wall:.1f}% of traced wall)" if m["unit"] == "s" else ""
        report.append(f"{name:34s} {m['value']:.6g} {m['unit']}{share}")
    extra = {"traced_input": inp.seed, "traced_wall_s": wall, "untraced_wall_s": wall - overhead,
             "fail_ratio": runner.failed / runner.attempted}
    return metrics, report, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (SRC / "isoshap" / "__init__.py").is_file():
        print(f"no isoshap sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        rot = args.seed % len(INPUT_SEEDS)
        inputs = []
        for ds in INPUT_SEEDS[rot:] + INPUT_SEEDS[:rot]:
            ds_dir = run_dir / f"input-{ds}"
            ds_dir.mkdir()
            facts = workloads.write_inputs(ds, ds_dir)
            (ds_dir / "cfg.json").write_text(json.dumps(workloads.config(args.workload, ds), indent=1))
            inputs.append(Input(ds, ds_dir, facts))
        runner = Runner(env, deadline)
        bench = bench_traced if args.trace else bench_end_to_end
        tools = hashlib.sha256(json.dumps(toolchain(env), sort_keys=True).encode()).hexdigest()[:16]
        try:
            result = bench(args, runner, inputs, f"{_source_hash()}/{tools}/{args.workload}")
        except TimeoutError as exc:
            runner.fail(str(exc))
            result = None
        if result is None:
            print("no successful run; errors:\n" + "\n".join(runner.errors), file=sys.stderr)
            return 1
        metrics, report, extra = result
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        print("\n".join(report))
        print("record " + json.dumps({**run_record(args.seed, env), **extra}, sort_keys=True))
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
