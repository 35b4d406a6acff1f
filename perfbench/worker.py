"""One workload phase in a fresh interpreter, so nilfibre's process-lifetime
caches start cold.  Run by ``run.py`` as ``python3 worker.py SPEC_JSON``.

Modes: ``setup`` imports nilfibre and builds the CLI parser, nothing else;
``run`` executes the workload's CLI calls (plain or traced), then writes a
result JSON to ``spec["result"]``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _call(main, argv: list[str]) -> tuple[int | None, str | None]:
    # The benchmark must keep going when one composition fails: record it.
    try:
        return main(argv), None
    except Exception:  # noqa: BLE001
        return None, traceback.format_exc()


def _timing_wrapper(fn, sink: list[float], n: int):
    """Time each ``verify_composition`` call on a composition of ``n``."""

    def timed(composition, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(composition, *args, **kwargs)
        finally:
            if composition.n == n:
                sink.append((time.perf_counter() - start) * 1e3)

    return timed


def run(spec: dict) -> dict:
    import nilfibre.cli
    import nilfibre.conformance

    from workloads import summarize_report

    seed = str(spec["seed"])
    common = ["--checks", "all", "--threads", "1", "--seed", seed]
    calls: list[dict] = []
    per_composition_ms: list[float] = []
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(request="conformance.verify_composition" if spec["kind"] == "sweep" else None)
        tracer.install()
    elif spec["kind"] == "sweep":
        # One wrapper, outside the CLI, times the compositions of the bound.
        original = nilfibre.conformance.verify_composition
        nilfibre.conformance.verify_composition = _timing_wrapper(original, per_composition_ms, spec["bound"])

    started = time.perf_counter()
    if spec["kind"] == "sweep":
        out = spec["out"]
        code, error = _call(nilfibre.cli.main, ["sweep", "--n", str(spec["bound"]), *common, "--out", out])
        calls.append({"compositions": (1 << spec["bound"]) - 1, "exit": code, "error": error})
    else:
        for idx, parts in enumerate(spec["compositions"]):
            if tracer is not None:
                tracer.next_run()
            path = os.path.join(spec["out"], f"{idx:02d}.json")
            t0 = time.perf_counter()
            code, error = _call(
                nilfibre.cli.main,
                ["verify", "--composition", ",".join(map(str, parts)), *common, "--out", path],
            )
            per_composition_ms.append((time.perf_counter() - t0) * 1e3)
            calls.append({"compositions": 1, "exit": code, "error": error, "files": [path]})
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.restore()
    elif spec["kind"] == "sweep":
        nilfibre.conformance.verify_composition = original

    if spec["kind"] == "sweep":
        calls[0]["files"] = [os.path.join(out, name) for name in sorted(os.listdir(out))]
    for call in calls:
        call["reports"] = {}
        for path in call.pop("files"):
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    call["reports"][os.path.basename(path)] = summarize_report(handle.read(), spec["seed"])
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "per_composition_ms": per_composition_ms,
        "calls": calls,
    }
    if tracer is not None:
        result["trace"] = trace_summary(tracer, spec)
    return result


def trace_summary(tracer, spec: dict) -> dict:
    from tracer import layer_inclusive_times, layer_self_times, nested_time, self_times

    spans = list(tracer.spans())
    per_name = self_times(spans)
    summary = {
        "per_name": per_name,
        "layers": layer_self_times(per_name),
        "layers_inclusive": layer_inclusive_times(spans),
        "counts": dict(tracer.counts),
        "spans": len(spans),
        "total_s": sum((end - start) / 1e9 for _, start, end, parent, _ in spans if parent < 0),
    }
    if spec.get("last_n_runs"):
        # Runs are numbered in sweep order, so the compositions of the bound
        # are the last 2^(bound-1) of them.
        first = tracer.run_id - spec["last_n_runs"] + 1
        kept = [i for i, span in enumerate(spans) if span[4] >= first]
        summary["last_n"] = {
            "per_name": self_times(spans, keep=set(kept)),
            "extraction_in_checks": nested_time(
                spans,
                {"invariants.vanishing_check", "invariants.weierstrass_check", "analysis.injectivity_witness"},
                "invariants.invariant_for",
                keep=set(kept),
            ),
        }
    if spec.get("spans"):
        tracer.write_spans(spec["spans"])
    return summary


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "setup":
        import nilfibre.cli

        nilfibre.cli.build_parser()
        return 0
    result = run(spec)
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
