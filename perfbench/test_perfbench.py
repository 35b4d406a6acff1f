"""Tests of the benchmark itself: span arithmetic, wrapper restoration,
seeded draws and report checking."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import nilfibre  # noqa: E402
import nilfibre.cli  # noqa: E402

from tracer import LAYERS, Tracer, layer_inclusive_times, layer_self_times, nested_time, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    count_failures,
    deep_pool,
    draw,
    pool,
    summarize_report,
    wide_pool,
)


def ns(seconds: float) -> int:
    return round(seconds * 1e9)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0, 100, -1, 1),
        ("b", 10, 40, 0, 1),
        ("c", 20, 30, 1, 1),
        ("d", 50, 70, 0, 1),
    ]
    out = self_times(spans)
    assert {k: ns(v["s"]) for k, v in out.items()} == {"a": 50, "b": 20, "c": 10, "d": 20}
    assert ns(out["a"]["incl_s"]) == 100
    assert layer_self_times({"core.x": {"s": 1.5}, "core.y": {"s": 0.5}, "cli.main": {"s": 2.0}})["core"] == 2.0
    # keep: totals over a subset, children still subtracted
    assert ns(self_times(spans, keep={1})["b"]["s"]) == 20


def test_recursive_span_counts_inclusive_time_once():
    spans = [("f", 0, 100, -1, 1), ("f", 10, 60, 0, 1), ("g", 70, 80, 0, 1)]
    out = self_times(spans)
    assert out["f"]["calls"] == 2
    assert ns(out["f"]["incl_s"]) == 100
    assert ns(out["f"]["s"]) == 40 + 50


def test_nested_time_uses_the_nearest_outer_span():
    spans = [
        ("check", 0, 100, -1, 1),
        ("inv", 10, 30, 0, 1),
        ("other", 40, 90, 0, 1),
        ("inv", 50, 60, 2, 1),
        ("inv", 200, 210, -1, 2),
    ]
    assert ns(nested_time(spans, {"check"}, "inv")["check"]) == 30


def test_tracer_records_parents_and_runs_with_a_fake_clock():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * 2)
    tracer.next_run()
    assert outer(1) == 4
    tracer.next_run()
    inner(0)
    spans = list(tracer.spans())
    assert [(s[0], s[3], s[4]) for s in spans] == [("m.outer", -1, 1), ("m.inner", 0, 1), ("m.inner", -1, 2)]
    out = self_times(spans)
    assert ns(out["m.outer"]["s"]) == 20  # 30 total minus the 10 of inner


def _bindings() -> dict:
    names = [m for m in sys.modules if m == "nilfibre" or m.startswith("nilfibre.")]
    snapshot = {(m, k): id(v) for m in names for k, v in vars(sys.modules[m]).items()}
    snapshot.update({("Poly", k): id(v) for k, v in vars(nilfibre.Poly).items()})
    return snapshot


def test_install_wraps_imported_names_and_restore_puts_them_back():
    import nilfibre.analysis as analysis
    import nilfibre.linalg as linalg

    before = _bindings()
    original = linalg.exact_rank
    tracer = Tracer()
    tracer.install()
    try:
        # the consumer module's own binding is wrapped, not only the definition
        assert analysis.exact_rank is not original
        assert analysis.exact_rank is linalg.exact_rank
        assert analysis.jordan_type([[0, 1], [0, 0]]) == (2,)
        nilfibre.Poly.from_json([])
    finally:
        tracer.restore()
    assert _bindings() == before
    assert analysis.exact_rank is original
    calls = self_times(tracer.spans())
    assert calls["analysis.jordan_type"]["calls"] == 1
    assert calls["linalg.exact_rank"]["calls"] >= 1  # via linalg.matrix_rank
    assert calls["poly.Poly.from_json"]["calls"] == 1
    assert tracer.counts["linalg.exact_rank.cells"] >= 4
    assert {name.split(".")[0] for name in tracer.names} <= set(LAYERS)
    assert not any(name.startswith("render.") for name in tracer.names)


def test_seeded_draw_is_deterministic_and_inside_its_pool():
    assert len(wide_pool()) == 610
    assert len(deep_pool(13)) == 39
    assert len(deep_pool(12)) == 22
    for workload, spec in WORKLOADS.items():
        if spec["kind"] != "verify":
            continue
        first = draw(workload, 3)
        assert first == draw(workload, 3)
        assert set(first) <= set(pool(workload))
        assert len(first) == len(set(first)) == (spec["draw"] or len(pool(workload)))
    assert draw("wide-n14", 1) != draw("wide-n14", 2)
    assert all(c[0] == c[-1] >= 3 and sum(c) == 13 for c in draw("deep-n13", 5))


def test_draw_takes_the_costliest_and_one_composition_from_each_cost_stratum():
    candidates = pool("deep-n13")
    costs = {"-".join(map(str, c)): rank for rank, c in enumerate(candidates)}
    picked = [candidates.index(c) for c in draw("deep-n13", 7, costs)]
    assert picked == sorted(picked)
    assert picked[-1] == len(candidates) - 1
    rest, k = len(candidates) - 1, len(picked) - 1
    assert all(i * rest // k <= p < (i + 1) * rest // k for i, p in enumerate(picked[:-1]))


def _report(tmp_path: Path, seed: int) -> bytes:
    path = tmp_path / f"r{seed}.json"
    argv = ["verify", "--composition", "2,1,1,2", "--checks", "all", "--seed", str(seed), "--out", str(path)]
    assert nilfibre.cli.main(argv) == 0
    return path.read_bytes()


def test_seed_is_normalised_before_digesting(tmp_path):
    zero, five = _report(tmp_path, 0), _report(tmp_path, 5)
    assert zero != five
    assert summarize_report(zero, 0)["digest"] == summarize_report(five, 5)["digest"]
    assert summarize_report(zero, 0)["raw"] != summarize_report(five, 5)["raw"]


def test_failed_fraction_rises_when_a_report_byte_is_flipped(tmp_path):
    raw = _report(tmp_path, 0)
    expected = summarize_report(raw, 0)["digest"]
    expect = {"00.json": (expected, 1)}

    def call(data: bytes, exit_code=0) -> dict:
        return {"compositions": 1, "exit": exit_code, "reports": {"00.json": summarize_report(data, 0)}}

    assert count_failures(call(raw), expect) == (1, 0)
    at = raw.index(b'"n": ') + len(b'"n": ')
    flipped = raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1 :]  # "n": 6 becomes "n": 7
    assert flipped != raw
    assert count_failures(call(flipped), expect) == (1, 1)
    assert count_failures(call(raw.replace(b"  ", b" ", 1)), expect) == (1, 1)  # formatting differs
    assert count_failures(call(raw, exit_code=2), expect) == (1, 1)
    assert count_failures({"compositions": 1, "exit": 0, "reports": {}}, expect) == (1, 1)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-n14", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_inclusive_time_counts_outermost_spans_of_a_layer():
    spans = [
        ("cli.main", 0, 100, -1, 1),
        ("builder.extend_all", 10, 50, 0, 1),
        ("core.neighbouring_pairs", 20, 30, 1, 1),
        ("builder.decorate", 35, 45, 1, 1),
        ("core.neighbouring_pairs", 60, 70, 0, 1),
    ]
    out = {k: ns(v) for k, v in layer_inclusive_times(spans).items() if v}
    assert out == {"cli": 100, "builder": 40, "core": 20}
