"""nilfibre benchmark: four seeded workloads through the public CLI.

    python3 perfbench/run.py --workload sweep-n10 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --sweep-n 12        # one-off traced sweep, prints a layer row

Run from the root of a checkout.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` one plain and one traced pass, and the per-layer
metrics.  Each pass is a fresh process (``worker.py``) with ``--threads 1``.
Every report is checked against ``digests.json``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record of the run goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS
from workloads import DEFAULT_SEED, WORKLOADS, composition_key, count_failures, digest_keys, draw, sweep_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

SETUP_REPEATS = 5  # at least this many interpreter + import + parser samples, median reported
FILL_REPEATS = 2  # disk-cache fills on deep-n12-warm (first and last), median reported
DEADLINE_S = 150  # start no timed pass after this
LIMIT_S = 170  # kill a pass still running then; a run must end within 180 s

END_TO_END = {"wall_s": "s", "verify_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics (see README.md for the end-to-end metric each should move).
SELF_SECONDS = (
    "builder.extend_all", "builder.decorate", "builder.collapse",
    "analysis.tangent_dimension", "analysis.orbital_variety_test", "analysis.injectivity_witness",
    "linalg.exact_rank", "linalg.mat_mul", "linalg.bareiss_det",
    "invariants.extract_invariant", "invariants.symbolic_minor",
    "invariants.vanishing_check", "invariants.weierstrass_check",
    "poly.Poly.substitute", "poly.Poly.from_json", "poly.Poly.to_json",
    "roots.excluded_roots", "roots.penetrating_string",
)
CALLS = (
    "core.neighbouring_pairs", "core.surrounding_pair",
    "analysis.jordan_type", "analysis.injectivity_witness",
    "linalg.exact_rank", "linalg.mat_mul", "linalg.bareiss_det",
    "invariants.invariant_for", "invariants.extract_invariant",
    "poly.Poly.substitute", "roots.excluded_roots", "roots.penetrating_string",
)


def per_layer_names() -> dict[str, str]:
    names = {f"{n}.s": "s" for n in SELF_SECONDS}
    names.update({f"{n}.calls": "count" for n in CALLS})
    names.update({f"{layer}.self_s": "s" for layer in LAYERS})
    names.update({f"{layer}.incl_s": "s" for layer in LAYERS})
    names.update(
        {
            "builder.tableaux": "count",
            "linalg.exact_rank.cells": "count",
            "invariants.monomials": "count",
            "invariants.hit_ratio": "ratio",
            "invariants.pairs_randomized": "count",
            "invariants.pairs_symbolic": "count",
            "invariants.disk_write_s": "s",
            "invariants.disk_read_s": "s",
            "invariants.disk_bytes": "bytes",
            "conformance.verify_composition.self_s": "s",
            "cli.report_bytes": "bytes",
            "trace.overhead_s": "s",
            "trace.spans": "count",
        }
    )
    return names


class Run:
    """Spawns the passes of one benchmark run and checks their reports."""

    def __init__(self, workload: str, seed: int, work: Path, digests: dict[str, str], limit_s: float | None = LIMIT_S):
        self.limit_s = limit_s  # None: no time limit (the one-off sweep)
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.work = work
        self.digests = digests
        self.compositions = draw(workload, seed) if self.spec["kind"] == "verify" else None
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _env(self, cache: Path | None) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env.pop("COMPONENT_TABLEAUX_CACHE", None)
        if cache is not None:
            env["COMPONENT_TABLEAUX_CACHE"] = str(cache)
        return env

    def _spawn(self, spec: dict, cache: Path | None) -> tuple[float, subprocess.CompletedProcess | None]:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(spec)],
                env=self._env(cache),
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=None if self.limit_s is None else max(1.0, self.limit_s - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{spec['mode']} pass timed out")
            return time.perf_counter() - start, None
        return time.perf_counter() - start, proc

    def setup_once(self) -> float:
        elapsed, proc = self._spawn({"mode": "setup"}, None)
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr if proc else 'timeout'}")
        return elapsed

    def pass_(self, trace: bool = False, cache: Path | None = None, spans: Path | None = None, last_n_runs: int = 0, bound: int | None = None) -> dict | None:
        """One fresh-process pass of the workload; returns the worker's
        result with ``process_s`` added, or None when the pass crashed (all
        its compositions then count as failed)."""
        self._count += 1
        out = self.work / f"pass{self._count}"
        out.mkdir()
        spec = {
            "mode": "run",
            "kind": self.spec["kind"],
            "bound": bound or self.spec.get("bound"),
            "compositions": self.compositions,
            "seed": self.seed,
            "trace": trace,
            "out": str(out),
            "result": str(self.work / f"pass{self._count}.json"),
            "spans": str(spans) if spans else None,
            "last_n_runs": last_n_runs,
        }
        elapsed, proc = self._spawn(spec, cache)
        shutil.rmtree(out, ignore_errors=True)
        total = (1 << spec["bound"]) - 1 if spec["kind"] == "sweep" else len(self.compositions)
        if proc is None or proc.returncode != 0:
            self.attempted += total
            self.failed += total
            if proc is not None:
                self.problems.append(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        with open(spec["result"]) as handle:
            result = json.load(handle)
        result["process_s"] = elapsed
        for idx, call in enumerate(result["calls"]):
            attempted, failed = count_failures(call, self._expect(idx, spec["bound"]))
            self.attempted += attempted
            self.failed += failed
            if failed:
                self.problems.append(f"call {idx}: exit {call['exit']}, {failed} failed {call.get('error') or ''}")
        return result

    def _expect(self, idx: int, bound: int | None) -> dict[str, tuple[str | None, int]]:
        if self.spec["kind"] == "sweep":
            return {
                name: (self.digests.get(f"sweep-n{bound}:{name}"), holds)
                for name, holds in sweep_files(bound).items()
            }
        key = f"verify:{composition_key(self.compositions[idx])}"
        return {f"{idx:02d}.json": (self.digests.get(key), 1)}

    def same_reports(self, a: dict, b: dict) -> None:
        """Plain and traced passes must write byte-identical reports."""
        for idx, (ca, cb) in enumerate(zip(a["calls"], b["calls"])):
            raw_a = {k: v["raw"] for k, v in ca["reports"].items()}
            raw_b = {k: v["raw"] for k, v in cb["reports"].items()}
            if raw_a != raw_b:
                self.failed += cb["compositions"]
                self.problems.append(f"call {idx}: traced reports differ from plain ones")


def end_to_end(run: Run, seconds: int) -> dict[str, float]:
    """Timed passes for ``seconds``, with the set-up samples spread over the
    run: host speed drifts on a scale of tens of seconds, and samples taken
    back to back would all land in one state."""
    setups: list[float] = []
    fills: list[float] = []
    cache = None

    def fill() -> Path:
        target = run.work / f"cache{len(fills)}"
        result = run.pass_(cache=target)
        if result is None:
            raise RuntimeError("disk-cache fill failed")
        fills.append(result["process_s"])
        return target

    if run.spec.get("disk_cache"):
        cache = fill()
    passes = []
    timed_start = time.perf_counter()
    while not passes or (time.perf_counter() - timed_start < seconds and run.elapsed() < DEADLINE_S):
        setups.append(run.setup_once())
        result = run.pass_(cache=cache)
        if result is None:
            break
        passes.append(result)
    if not passes:
        raise RuntimeError("no timed pass completed")
    while len(setups) < SETUP_REPEATS:
        setups.append(run.setup_once())
    while run.spec.get("disk_cache") and len(fills) < FILL_REPEATS:
        fill()
    setup_s = statistics.median(setups) + (statistics.median(fills) if fills else 0.0)
    # Each composition's time is averaged over the passes before the median
    # is taken: the host switches between a fast and a slow state, and a
    # median of pooled samples jumps with whichever state held the majority.
    ms = [statistics.fmean(times) for times in zip(*(p["per_composition_ms"] for p in passes))]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "verify_p50_ms": statistics.median(ms),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": setup_s,
        "detail": {
            "setup_s": setups,
            "fill_s": fills,
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
            "timed_compositions": len(ms),
        },
    }


def _report_totals(result: dict) -> dict[str, int]:
    totals = {"tableaux": 0, "bytes": 0, "randomized": 0, "symbolic": 0}
    for call in result["calls"]:
        for summary in call["reports"].values():
            totals["tableaux"] += summary["tableaux"]
            totals["bytes"] += summary["bytes"]
            totals["randomized"] += summary["modes"].get("randomized", 0)
            totals["symbolic"] += summary["modes"].get("symbolic", 0)
    return totals


def per_layer(run: Run, spans_path: Path) -> dict[str, float]:
    cache = fill = None
    if run.spec.get("disk_cache"):
        cache = run.work / "cache"
        fill = run.pass_(trace=True, cache=cache)
        if fill is None:
            raise RuntimeError("disk-cache fill failed")
    plain = run.pass_(cache=cache)
    traced = run.pass_(trace=True, cache=cache, spans=spans_path)
    if plain is None or traced is None:
        raise RuntimeError("plain or traced pass failed")
    run.same_reports(plain, traced)

    trace = traced["trace"]
    per = trace["per_name"]
    counts = trace["counts"]
    metrics: dict[str, float] = {}
    for name in SELF_SECONDS:
        metrics[f"{name}.s"] = per.get(name, {}).get("s", 0.0)
    for name in CALLS:
        metrics[f"{name}.calls"] = per.get(name, {}).get("calls", 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = trace["layers"][layer]
        metrics[f"{layer}.incl_s"] = trace["layers_inclusive"][layer]
    totals = _report_totals(traced)
    lookups = metrics["invariants.invariant_for.calls"]
    metrics.update(
        {
            "builder.tableaux": totals["tableaux"],
            "linalg.exact_rank.cells": counts.get("linalg.exact_rank.cells", 0),
            "invariants.monomials": counts.get("invariants.monomials", 0),
            "invariants.hit_ratio": 1 - metrics["invariants.extract_invariant.calls"] / lookups if lookups else 0.0,
            "invariants.pairs_randomized": totals["randomized"],
            "invariants.pairs_symbolic": totals["symbolic"],
            "invariants.disk_write_s": 0.0,
            "invariants.disk_read_s": 0.0,
            "invariants.disk_bytes": 0,
            "conformance.verify_composition.self_s": per.get("conformance.verify_composition", {}).get("s", 0.0),
            "cli.report_bytes": totals["bytes"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "trace.spans": trace["spans"],
        }
    )
    if fill is not None:
        # The fill writes the cache and the timed pass only reads it.
        fill_per = fill["trace"]["per_name"]
        metrics["invariants.disk_write_s"] = fill_per.get("invariants.invariant_for", {}).get("s", 0.0)
        metrics["poly.Poly.to_json.s"] = fill_per.get("poly.Poly.to_json", {}).get("s", 0.0)
        metrics["invariants.disk_read_s"] = per.get("invariants.invariant_for", {}).get("s", 0.0)
        metrics["invariants.disk_bytes"] = sum(p.stat().st_size for p in cache.iterdir())
    total = trace["total_s"] or 1.0
    print("layer times of the traced pass: self, and inclusive of callees in other layers")
    for layer in LAYERS:
        own, incl = trace["layers"][layer], trace["layers_inclusive"][layer]
        print(f"  {layer:<12} {own:9.3f} s {100 * own / total:5.1f} %   {incl:9.3f} s {100 * incl / total:5.1f} %")
    print(f"  plain wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s")
    return metrics


def sweep_row(run: Run, bound: int, spans_path: Path) -> dict:
    """One-off: plain and traced ``sweep --n bound``; layer times of the
    compositions of n == bound, in the columns of ROADMAP's baseline table."""
    plain = run.pass_(bound=bound)
    traced = run.pass_(trace=True, bound=bound, spans=spans_path, last_n_runs=1 << (bound - 1))
    if plain is None or traced is None:
        raise RuntimeError("sweep pass failed")
    run.same_reports(plain, traced)
    last = traced["trace"]["last_n"]
    incl = {name: row["incl_s"] for name, row in last["per_name"].items()}
    extraction = last["extraction_in_checks"]
    report = traced["calls"][0]["reports"].get(f"sweep_n{bound}.json", {})
    return {
        "n": bound,
        "tableaux": report.get("tableaux", 0),
        "enumerate_s": incl.get("builder.component_tableaux", 0.0),
        "roots_s": incl.get("roots.excluded_roots", 0.0),
        "invariants_s": incl.get("invariants.extract_invariant", 0.0),
        "vanishing_s": incl.get("invariants.vanishing_check", 0.0) - extraction["invariants.vanishing_check"],
        "weierstrass_s": incl.get("invariants.weierstrass_check", 0.0) - extraction["invariants.weierstrass_check"],
        "dimension_s": incl.get("analysis.tangent_dimension", 0.0),
        "injectivity_s": incl.get("analysis.injectivity_witness", 0.0) - extraction["analysis.injectivity_witness"],
        "orbital_s": incl.get("analysis.orbital_variety_test", 0.0),
        "plain_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "plain_peak_rss_mb": plain["peak_rss_mb"],
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep-n", type=int, default=None, help="one-off traced sweep at this bound")
    args = parser.parse_args(argv)
    if args.sweep_n is None and args.workload is None:
        parser.error("--workload is required")
    if args.sweep_n is not None and not 1 <= args.sweep_n <= 13:
        parser.error("--sweep-n must be in 1..13")
    return args


def _write_record(name: str, record: dict) -> None:
    with open(RESULTS / name, "w") as handle:
        json.dump({**record, **environment()}, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nilfibre" / "cli.py").is_file():
        print(f"error: no nilfibre sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    with open(HERE / "digests.json") as handle:
        digests = json.load(handle)
    workload = args.workload or "sweep-n10"
    missing = [] if args.sweep_n is not None else [k for k in digest_keys(workload, args.seed) if k not in digests]
    if missing:
        print(f"error: digests.json lacks {missing[:3]}; run perfbench/record_digests.py", file=sys.stderr)
        return 2
    (HERE / ".work").mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    run = Run(workload, args.seed, work, digests, limit_s=None if args.sweep_n else LIMIT_S)
    try:
        if args.sweep_n is not None:
            row = sweep_row(run, args.sweep_n, RESULTS / f"sweep-n{args.sweep_n}.spans.jsonl.gz")
        elif args.trace:
            metrics = per_layer(run, RESULTS / f"{workload}.spans.jsonl.gz")
            units, detail = per_layer_names(), None
        else:
            measured = end_to_end(run, args.seconds)
            metrics = {key: measured[key] for key in END_TO_END}
            units, detail = END_TO_END, measured["detail"]
            print(f"{len(detail['pass_wall_s'])} timed passes of {detail['timed_compositions']} timed compositions")
    except RuntimeError as exc:
        for problem in [f"error: {exc}", *run.problems]:
            print(problem, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in run.problems:
        print(problem, file=sys.stderr)
    failed = min(run.failed, run.attempted)  # a traced report can fail twice
    failed_fraction = failed / run.attempted
    outcome = {"attempted": run.attempted, "failed": failed, "failed_fraction": failed_fraction}
    if args.sweep_n is not None:
        for key, value in row.items():
            print(f"{key:>18} {value}")
        print(f"failed_fraction = {failed_fraction} ({failed} of {run.attempted} compositions)")
        _write_record(f"sweep-n{args.sweep_n}-seed{args.seed}.json", {"seed": args.seed, "row": row, **outcome})
        return 0 if failed == 0 else 1

    tagged = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    for key, value in metrics.items():
        print(f"{key} = {value} {units[key]}")
    print(f"failed_fraction = {failed_fraction} ({failed} of {run.attempted} compositions)")
    _write_record(
        f"{workload}-seed{args.seed}-trace{args.trace}.json",
        {
            "workload": workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "compositions": [list(c) for c in run.compositions] if run.compositions else f"all compositions of n <= {run.spec['bound']}",
            "metrics": tagged,
            "detail": detail,
            **outcome,
        },
    )
    result = {"correct": failed == 0 and not run.problems, "attempted": run.attempted, "failed": failed}
    print(json.dumps({**result, "metrics": tagged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
