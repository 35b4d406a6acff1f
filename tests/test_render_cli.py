import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilfibre.builder import component_tableaux
from nilfibre.core import Diagram
from nilfibre.cli import build_parser, main
from nilfibre.render import render_component, render_matrix
from nilfibre.roots import excluded_roots

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_INSTANCES = {
    "enumerate_1-2-1-2.txt": "1,2,1,2",
    "enumerate_2-1-1-2-1.txt": "2,1,1,2,1",
    "enumerate_3-2-1-2-2-1-3.txt": "3,2,1,2,2,1,3",
    "enumerate_1-2-2-1-3-2.txt": "1,2,2,1,3,2",
    "enumerate_2-1-2-2-1.txt": "2,1,2,2,1",
    "enumerate_2-1-2-1-2-1.txt": "2,1,2,1,2,1",
    "enumerate_3-2-1-3-2-1.txt": "3,2,1,3,2,1",
    "enumerate_3-2-1-3-1-2.txt": "3,2,1,3,1,2",
}


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


@pytest.mark.parametrize("name, comp", sorted(GOLDEN_INSTANCES.items()))
def test_text_goldens(name, comp, tmp_path):
    code, text = run_cli(["enumerate", "--composition", comp], tmp_path)
    assert code == 0
    assert text == (GOLDEN / name).read_text()


def test_latex_golden(tmp_path):
    code, text = run_cli(
        ["enumerate", "--composition", "1,2,1,2", "--format", "latex"], tmp_path
    )
    assert code == 0
    assert text == (GOLDEN / "enumerate_1-2-1-2.tex").read_text()


def test_enumerate_trivial_composition(tmp_path):
    code, text = run_cli(["enumerate", "--composition", "4"], tmp_path)
    assert code == 0
    assert "tableaux 1" in text.splitlines()[0]
    assert "*" not in text.split("--", 1)[1]  # no lines at all


def test_enumerate_latex_212121(tmp_path):
    code, text = run_cli(
        ["enumerate", "--composition", "2,1,2,1,2,1", "--format", "latex"], tmp_path
    )
    assert code == 0
    assert text.count(r"\begin{tikzcd}") == 5
    assert text.count(r"\begin{pmatrix}") == 5


def test_enumerate_json_schema(tmp_path):
    code, text = run_cli(
        ["enumerate", "--composition", "2,1,1,2", "--format", "json"], tmp_path
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["composition"] == [2, 1, 1, 2]
    assert len(payload["tableaux"]) == 2
    first = payload["tableaux"][0]
    assert {"composition", "choiceSequence", "lines", "excludedRoots"} <= set(first)
    for record in first["choiceSequence"]:
        assert {"t", "pairLeft", "pairRight", "entry", "rowsDown"} <= set(record)


def test_matrix_renderer_labels():
    ct = next(
        t for t in component_tableaux(Diagram((2, 1, 1, 2))) if t.v_support == {(3, 4), (3, 6)}
    )
    art = render_matrix(ct, excluded_roots(ct))
    row3 = next(line for line in art.splitlines() if line.strip().startswith("3 "))
    assert "(*)" in row3
    assert render_component(ct).count("*") >= 2


def test_verify_exit_codes(tmp_path):
    code, text = run_cli(["verify", "--composition", "2,1,1,2", "--checks", "all"], tmp_path)
    assert code == 0
    report = json.loads(text)
    assert report["pass"] is True
    assert report["schemaVersion"] == 1

    code, _ = run_cli(["verify", "--composition", "1", "--checks", "all"], tmp_path)
    assert code == 0


def test_verify_orbital_21112(tmp_path):
    code, text = run_cli(
        ["verify", "--composition", "2,1,1,1,2", "--checks", "orbital"], tmp_path
    )
    assert code == 0
    report = json.loads(text)
    statuses = sorted(t["orbital"]["status"] for t in report["tableaux"])
    assert statuses == ["not_orbital", "not_orbital", "orbital"]


def test_usage_errors():
    assert main(["verify", "--composition", "not-a-comp"]) == 1
    assert main(["verify", "--composition", "2,1", "--checks", "bogus"]) == 1
    assert main(["bogus-subcommand"]) == 1


@pytest.mark.parametrize("checks", ["vanishing,vanishing", "covering,dimension,covering"])
def test_repeated_checks_are_rejected(tmp_path, checks):
    from nilfibre.conformance import verify_composition

    out = tmp_path / "report"
    assert main(["verify", "--composition", "2,1,1,2", "--checks", checks, "--out", str(out)]) == 1
    assert not out.exists()
    with pytest.raises(ValueError, match="repeated"):
        verify_composition(Diagram((2, 1, 1, 2)), tuple(checks.split(",")))


def test_unknown_checks_are_invalid_input():
    # one validator serves the CLI and the library
    from nilfibre.conformance import verify_composition
    from nilfibre.core import InvalidInput

    with pytest.raises(InvalidInput, match="unknown checks"):
        verify_composition(Diagram((2, 1)), ("bogus",))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--composition", "2,1,1,2", "--checks", ""],
        ["verify", "--composition", "2,1,1,2", "--checks", ","],
        ["sweep", "--n", "2", "--checks", " , "],
    ],
)
def test_empty_check_list_is_a_usage_error(tmp_path, argv):
    # a report with no checks would read "pass": true while checking nothing
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_enumerate_rejects_options_it_does_not_read(tmp_path, flag):
    out = tmp_path / "report"
    assert main(["enumerate", "--composition", "1,2,1", flag, "1", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--composition", "2,1,1,2", "--symbolic-max-n", "0"],
        ["sweep", "--n", "3", "--symbolic-max-n", "0"],
    ],
)
def test_symbolic_max_n_is_not_an_option(tmp_path, argv):
    # the routing bound is the interval's, not the user's
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "0"],
        ["sweep", "--n", "-2"],
        ["sweep", "--n", "three"],
        ["sweep", "--n", "1_0"],
        ["sweep", "--n", "3", "--threads", "1_0"],
        ["sweep", "--n", "3", "--threads", "0"],
        ["sweep", "--n", "3", "--threads", "-4"],
        ["verify", "--composition", "2,1", "--threads", "0"],
        ["verify", "--composition", "2,1", "--seed", "1_0"],
        ["verify", "--composition", "2,1", "--seed", "\u0663"],
        ["verify", "--composition", "2,1", "--seed", "1.5"],
    ],
)
def test_bad_bounds_are_usage_errors(argv, tmp_path):
    # rejected while parsing, before any work or worker pool starts
    out = tmp_path / "out"
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()


def test_negative_seed_is_written_as_given(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--composition", "2,1", "--checks", "orbital", "--seed", "-3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == -3


@pytest.mark.parametrize("cpus, requested, expected", [(2, 64, 2), (2, 2, 2), (4, 1, 1), (None, 8, 1)])
def test_threads_clamped_to_cpu_count(monkeypatch, cpus, requested, expected):
    # without an affinity mask to read, the clamp falls back to cpu_count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    args = build_parser().parse_args(["sweep", "--n", "3", "--threads", str(requested)])
    assert args.threads == expected


def test_threads_clamped_to_the_affinity_mask(monkeypatch):
    # 8 CPUs on the machine, 2 that this process may run on
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    args = build_parser().parse_args(["sweep", "--n", "3", "--threads", "8"])
    assert args.threads == 2


def test_reports_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main([
            "verify", "--composition", "2,1,1,1,2", "--seed", "7", "--out", str(path)
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


WRITER_PAYLOADS = {
    "empty containers": {"a": {}, "b": [], "c": [{}, [[]], {"d": {"e": []}}]},
    "newline and non-ASCII": {"text": "two\nlines", "greek": "\u03b1\u03b2 \u2014 caf\u00e9", "list": ["x\ny", 3]},
    "more than one batch": {"rows": [{"index": i, "label": str(i) * 3} for i in range(3000)]},
}


@pytest.mark.parametrize("payload", list(WRITER_PAYLOADS.values()), ids=list(WRITER_PAYLOADS))
def test_json_writer_bytes(payload, tmp_path):
    import io

    from nilfibre import cli

    text = cli._ENCODER.encode(payload)
    assert text == json.dumps(payload, indent=2, sort_keys=True)
    for margin in ("", "    "):
        handle = io.StringIO()
        cli._dump(handle, payload, margin)
        assert handle.getvalue() == text.replace("\n", "\n" + margin)
    cli._write_json(payload, str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text() == text + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def poisoned_verify(monkeypatch):
    # verify_composition whose report ends in a value JSON cannot encode,
    # after more than one batch of chunks
    from nilfibre import cli

    verify = cli.verify_composition

    def poisoned(*args, **kwargs):
        report = verify(*args, **kwargs)
        assert sum(1 for _ in cli._ENCODER.iterencode(report)) > 4096
        return {**report, "~": object()}

    monkeypatch.setattr(cli, "verify_composition", poisoned)


def poisoned_excluded_roots(monkeypatch):
    # excluded_roots whose JSON for the last tableau of 2,1,2,1,2,1,2,1
    # ends in a value JSON cannot encode
    from types import SimpleNamespace

    from nilfibre import cli

    last = len(component_tableaux(Diagram((2, 1, 2, 1, 2, 1, 2, 1))))
    calls = []

    def poisoned(ct):
        roots = excluded_roots(ct)
        calls.append(ct)
        if len(calls) < last:
            return roots
        return SimpleNamespace(to_json=lambda: {**roots.to_json(), "~": object()})

    monkeypatch.setattr(cli, "excluded_roots", poisoned)


@pytest.mark.parametrize("previous", [None, "previous report\n"])
@pytest.mark.parametrize(
    "poison, argv",
    [
        (poisoned_verify, ["verify", "--composition", "1,2,1,2,1,2,1", "--checks", "all"]),
        (poisoned_excluded_roots, ["enumerate", "--composition", "2,1,2,1,2,1,2,1", "--format", "json"]),
    ],
    ids=["verify", "enumerate"],
)
def test_out_is_replaced_only_by_a_complete_report(poison, argv, previous, tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    if previous is not None:
        out.write_text(previous)
    poison(monkeypatch)
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(argv + ["--out", str(out)])
    assert (out.read_text() if out.exists() else None) == previous
    assert not (tmp_path / "report.json.partial").exists()


def test_verify_writes_its_report_without_holding_the_text(tmp_path, monkeypatch):
    # a ~2 MB synthetic report: while it is written, no more than a quarter
    # of its text is held at once
    import tracemalloc

    from nilfibre import cli

    report = {
        "inconclusive": False,
        "pass": True,
        "rows": [{"index": i, "label": f"row {i:06d} " * 4, "values": [i, -i]} for i in range(12_000)],
    }
    monkeypatch.setattr(cli, "verify_composition", lambda *args, **kwargs: report)
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert main(["verify", "--composition", "1,2,1", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert 1_800_000 < size < 2_500_000
    assert out.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert peak < size / 4


def test_sweep_counts(capsys):
    code = main(["sweep", "--n", "3", "--checks", "vanishing"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["perN"]["3"] == {"compositions": 4, "tableaux": 4}


def test_sweep_writes_per_n_files(tmp_path):
    out = tmp_path / "reports"
    code = main(["sweep", "--n", "3", "--checks", "covering", "--out", str(out)])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["summary.json", "sweep_n1.json", "sweep_n2.json", "sweep_n3.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True


def test_sweep_threads_match_serial(tmp_path):
    one = main(["sweep", "--n", "8", "--seed", "3", "--out", str(tmp_path / "one")])
    two = main(["sweep", "--n", "8", "--seed", "3", "--threads", "2", "--out", str(tmp_path / "two")])
    assert one == two == 0
    names = ["summary.json"] + [f"sweep_n{n}.json" for n in range(1, 9)]
    assert sorted(p.name for p in (tmp_path / "two").iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes(), name


def test_sweep_holds_one_report_at_a_time(tmp_path, monkeypatch):
    import weakref

    from nilfibre import conformance

    class Report(dict):
        pass

    refs = []
    live_at_call = []
    verify = conformance.verify_composition

    def tracked(*args, **kwargs):
        live_at_call.append(sum(ref() is not None for ref in refs))
        report = Report(verify(*args, **kwargs))
        refs.append(weakref.ref(report))
        return report

    monkeypatch.setattr(conformance, "verify_composition", tracked)
    assert main(["sweep", "--n", "8", "--checks", "all", "--out", str(tmp_path / "out")]) == 0
    assert len(live_at_call) == 255
    assert max(live_at_call) <= 1


def test_sweep_builds_each_diagram_once(tmp_path, monkeypatch, fresh_memos):
    from nilfibre import invariants

    built = []
    fill = Diagram.__post_init__

    def counted(diagram):
        built.append(diagram.parts)
        fill(diagram)

    monkeypatch.setattr(Diagram, "__post_init__", counted)
    assert main(["sweep", "--n", "8", "--checks", "all", "--out", str(tmp_path / "out")]) == 0
    # one diagram per composition, and one per generator extracted
    assert len(built) == 255 + invariants.invariant_for.cache_info().currsize
    d = Diagram((2, 1, 1, 2))
    assert all(ct.diagram is d for ct in component_tableaux(d))


def test_sweep_rejects_a_file_as_out_before_verifying(tmp_path, monkeypatch):
    from nilfibre import conformance

    def refuse(*args, **kwargs):
        raise AssertionError("a composition was verified before --out was checked")

    monkeypatch.setattr(conformance, "verify_composition", refuse)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["sweep", "--n", "8", "--out", str(taken)]) == 1
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "work, argv",
    [
        ("verify_composition", ["verify", "--composition", "2,1"]),
        ("component_tableaux", ["enumerate", "--composition", "2,1"]),
    ],
    ids=["verify", "enumerate"],
)
def test_a_bad_out_fails_before_any_work(work, argv, tmp_path, monkeypatch):
    from nilfibre import cli

    calls = []
    run = getattr(cli, work)
    monkeypatch.setattr(cli, work, lambda *args, **kwargs: calls.append(args) or run(*args, **kwargs))
    assert main(argv + ["--out", str(tmp_path / "missing" / "r.json")]) == 1
    assert calls == []


def test_perfbench_sweep_timer_reads_n_off_the_verified_argument(monkeypatch):
    # perfbench/worker.py times a sweep by wrapping verify_composition and
    # reading .n off its first argument; it is loaded here from its file
    import importlib.util

    from nilfibre import conformance

    spec = importlib.util.spec_from_file_location("perfbench_worker", Path(__file__).parents[1] / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    times = []
    monkeypatch.setattr(conformance, "verify_composition", worker._timing_wrapper(conformance.verify_composition, times, 4))
    assert main(["sweep", "--n", "4", "--checks", "all", "--seed", "0"]) == 0
    assert len(times) == 8


def test_sweep_that_raises_leaves_only_complete_files(tmp_path, monkeypatch):
    from nilfibre import conformance

    assert main(["sweep", "--n", "2", "--out", str(tmp_path / "clean")]) == 0
    verify = conformance.verify_composition

    def fail_at_three(composition, *args, **kwargs):
        if composition.n == 3:
            raise RuntimeError("injected failure")
        return verify(composition, *args, **kwargs)

    monkeypatch.setattr(conformance, "verify_composition", fail_at_three)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="injected failure"):
        main(["sweep", "--n", "4", "--out", str(out)])
    assert sorted(p.name for p in out.iterdir()) == ["sweep_n1.json", "sweep_n2.json"]
    for name in ("sweep_n1.json", "sweep_n2.json"):
        assert (out / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def test_sweep_reports_match_the_digest_ledger(tmp_path, monkeypatch):
    # sweep_sha256.txt holds the sha256 of every per-n file of
    # "sweep --n 11 --checks all --seed 0" on both routes, the restricted one
    # with the routing bound at 0, and of the n = 12 file on the default
    # route; a per-n file does not depend on the sweep's bound, so n <= 9 is
    # regenerated here and n = 10 to 12 are left to CI
    import hashlib

    from nilfibre import invariants

    for route, bound in {"default": invariants.SYMBOLIC_MAX_N, "symbolic-max-n-0": 0}.items():
        monkeypatch.setattr(invariants, "SYMBOLIC_MAX_N", bound)
        args = ["sweep", "--n", "9", "--checks", "all", "--seed", "0"]
        assert main(args + ["--out", str(tmp_path / route)]) == 0
    checked = 0
    for line in (GOLDEN / "sweep_sha256.txt").read_text().splitlines():
        digest, name = line.split("  ")
        if name.endswith(("_n10.json", "_n11.json", "_n12.json")):
            continue
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        checked += 1
    assert checked == 18


def test_enumerate_outputs_match_the_digest_ledger(tmp_path):
    # enumerate_sha256.txt holds, for each n <= 11 and each format, the sha256
    # of the "enumerate --composition C --format F" outputs of every
    # composition C of n, concatenated in cut-set order; n <= 10 is
    # regenerated here and n = 11 is left to CI
    import hashlib

    from nilfibre.conformance import compositions_of

    out = tmp_path / "out"
    digests = {}
    for n in range(1, 11):
        for fmt in ("text", "json", "latex"):
            digest = hashlib.sha256()
            for parts in compositions_of(n):
                comp = ",".join(map(str, parts))
                assert main(["enumerate", "--composition", comp, "--format", fmt, "--out", str(out)]) == 0
                digest.update(out.read_bytes())
            digests[f"n{n}.{fmt}"] = digest.hexdigest()
    ledger = (line.split("  ") for line in (GOLDEN / "enumerate_sha256.txt").read_text().splitlines())
    checked = {name: digest for digest, name in ledger if not name.startswith("n11.")}
    assert len(checked) == 30
    assert checked == digests


def far_compositions():
    """The far-n ledger's compositions, drawn by the rule that
    far_compositions.txt states."""
    from random import Random

    listed = [(2, 1) * 7]
    for n in (18, 20, 22, 24, 26):
        rng = Random(n)
        for _ in range(10):
            cuts = rng.getrandbits(n - 1)
            parts, size = [], 1
            for b in range(n - 1):
                if cuts >> b & 1:
                    parts.append(size)
                    size = 1
                else:
                    size += 1
            parts.append(size)
            listed += [tuple(parts), tuple(reversed(parts))]
    for c in (3, 4, 5):
        for n in (16, 20):
            listed.append((c,) + (1,) * (n - 2 * c) + (c,))
    for r in (3, 4, 5):
        listed.append((3,) + (1, 2) * r + (1, 3))
    return list(dict.fromkeys(listed))


def far_ledger():
    """(composition, report name, sha256) of every far-n ledger line, in the
    list's order."""
    listed = [line for line in (GOLDEN / "far_compositions.txt").read_text().splitlines() if not line.startswith("#")]
    ledger = [line.split("  ") for line in (GOLDEN / "far_sha256.txt").read_text().splitlines()]
    return [(comp, name, digest) for comp, (digest, name) in zip(listed, ledger, strict=True)]


def test_far_list_follows_its_stated_rule():
    # no composition is dropped or swapped, and the ledger names each
    # listed composition's report, in the list's order
    ledger = far_ledger()
    assert [comp for comp, _, _ in ledger] == [",".join(map(str, parts)) for parts in far_compositions()]
    assert all(name == f"verify_{comp.replace(',', '-')}.json" for comp, name, _ in ledger)
    assert len(ledger) == 110


def test_far_reports_match_the_digest_ledger(tmp_path):
    # far_sha256.txt holds the sha256 of "verify --composition C --checks all
    # --seed 0" for every C of far_compositions.txt; the lines of n <= 18 are
    # regenerated here and every line is left to CI
    import hashlib

    checked = 0
    for comp, name, digest in far_ledger():
        if sum(map(int, comp.split(","))) > 18:
            continue
        args = ["verify", "--composition", comp, "--checks", "all", "--seed", "0"]
        assert main(args + ["--out", str(tmp_path / name)]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        checked += 1
    assert checked == 24


def test_invariant_disk_cache(tmp_path, monkeypatch):
    from nilfibre import invariants

    cache = tmp_path / "cache"
    monkeypatch.setenv("COMPONENT_TABLEAUX_CACHE", str(cache))
    invariants.invariant_for.cache_clear()
    ct = component_tableaux(Diagram((2, 1, 1, 2)))[0]
    from nilfibre.core import neighbouring_pairs

    pair = neighbouring_pairs(ct.diagram)[0]
    first = invariants.invariant_for(ct.diagram.parts, pair)
    assert list(cache.iterdir())
    invariants.invariant_for.cache_clear()
    second = invariants.invariant_for(ct.diagram.parts, pair)
    assert first.polynomial == second.polynomial
    invariants.invariant_for.cache_clear()


@pytest.mark.parametrize(
    "content",
    [
        "",
        "{not json",
        "{}",
        "[]",
        pytest.param(
            '{"degree": 1, "d_D": 0, "polynomial": [{"coeff": 1, "vars": [[3, 4], [3, 4]]}]}',
            id="repeated-position",
        ),
        pytest.param(
            '{"degree": 2, "d_D": 0, "polynomial": [{"coeff": 1, "vars": [[3, 4]]}]}',
            id="wrong-degree",
        ),
        pytest.param(
            '{"degree": 1, "d_D": 0, "polynomial": [{"coeff": 1, "vars": []}]}',
            id="wrong-monomial-degree",
        ),
        pytest.param(
            '{"degree": 1, "d_D": 1, "polynomial": [{"coeff": 1, "vars": [[3, 4]]}]}',
            id="wrong-valuation",
        ),
        pytest.param(
            '{"degree": 1, "d_D": 0, "polynomial": [{"coeff": 1, "vars": [[3, 4]], "aPow": 2}]}',
            id="unknown-key",
        ),
        pytest.param(
            '{"degree": 1, "d_D": 0, "polynomial": [{"coeff": 0.5, "vars": [[3, 4]]}]}',
            id="float-coefficient",
        ),
        pytest.param(
            '{"degree": 1, "d_D": 0, "polynomial": [{"coeff": 1, "vars": [[1, 2]]}]}',
            id="levi-position",
        ),
        pytest.param(
            '{"degree": 1, "d_D": 0, "polynomial": [{"coeff": 1, "vars": [[1, 3]]}]}',
            id="outside-interval",
        ),
        pytest.param(
            '{"degree": 1, "d_D": 0, "polynomial": [{"coeff": 1, "vars": [[4, 3]]}]}',
            id="below-diagonal",
        ),
        pytest.param(
            '{"degree": 1, "d_D": 0, "polynomial": [{"coeff": 1, "vars": [[3.0, 4]]}]}',
            id="float-position",
        ),
        pytest.param(
            '{"pair": {"left": 2, "right": 3, "height": 1}, "degree": 1, "d_D": 0, "monomialCount": 1, '
            '"polynomial": [{"coeff": 1, "vars": [[3, 4]], "aPow": 0}]}',
            id="old-format",
        ),
    ],
)
def test_invariant_disk_cache_rewrites_corrupt_entries(tmp_path, monkeypatch, content):
    from nilfibre import invariants
    from nilfibre.core import neighbouring_pairs

    cache = tmp_path / "cache"
    monkeypatch.setenv("COMPONENT_TABLEAUX_CACHE", str(cache))
    invariants.invariant_for.cache_clear()
    parts = (2, 1, 1, 2)
    pair = neighbouring_pairs(component_tableaux(Diagram(parts))[0].diagram)[0]
    expected = invariants.invariant_for(parts, pair)
    (entry,) = cache.iterdir()
    entry.write_text(content)
    invariants.invariant_for.cache_clear()
    again = invariants.invariant_for(parts, pair)
    invariants.invariant_for.cache_clear()
    assert again == expected
    assert entry.read_text() == json.dumps(expected.to_json())


def test_every_generator_reads_back_from_the_disk_cache(tmp_path, monkeypatch):
    from nilfibre import invariants
    from nilfibre.conformance import compositions_of
    from nilfibre.core import neighbouring_pairs

    cache = tmp_path / "cache"
    monkeypatch.setenv("COMPONENT_TABLEAUX_CACHE", str(cache))
    keys = [
        (parts, pair)
        for n in range(1, 9)
        for parts in compositions_of(n)
        for pair in neighbouring_pairs(Diagram(parts))
    ]

    def refuse(diagram, pair):
        raise AssertionError(f"{pair} of {diagram.parts} missed the disk cache")

    invariants.invariant_for.cache_clear()
    try:
        written = [invariants.invariant_for(parts, pair) for parts, pair in keys]
        assert len(list(cache.iterdir())) == len(keys)
        invariants.invariant_for.cache_clear()
        monkeypatch.setattr(invariants, "extract_invariant", refuse)
        assert [invariants.invariant_for(parts, pair) for parts, pair in keys] == written
    finally:
        invariants.invariant_for.cache_clear()


def test_interrupted_cache_write_leaves_the_old_entry(tmp_path):
    from nilfibre.invariants import _write_atomically

    path = tmp_path / "entry.json"
    path.write_text('{"old": true}')
    with pytest.raises(TypeError):
        _write_atomically(str(path), {"new": True, "unserializable": object()})
    assert path.read_text() == '{"old": true}'
    assert list(tmp_path.iterdir()) == [path]
    _write_atomically(str(path), {"new": True})
    assert json.loads(path.read_text()) == {"new": True}
    assert list(tmp_path.iterdir()) == [path]


def test_console_entry_point():
    # the child imports the same nilfibre as this process, however it was found
    import nilfibre

    package_root = str(Path(nilfibre.__file__).resolve().parent.parent)
    search = [package_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-m", "nilfibre.cli", "enumerate", "--composition", "1,2,1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(search)},
    )
    assert proc.returncode == 0
    assert "tableaux 1" in proc.stdout


def test_verify_violation_exit_code(tmp_path, monkeypatch):
    from nilfibre import conformance
    from nilfibre.invariants import PairVanishing, VanishingReport

    def broken(ct, roots, **kwargs):
        from nilfibre.core import neighbouring_pairs

        results = tuple(
            PairVanishing(p, "symbolic", False, False, ((1, 2),), ((1, 2),), exclusions=frozenset())
            for p in neighbouring_pairs(ct.diagram)
        )
        return VanishingReport(results)

    monkeypatch.setattr(conformance, "vanishing_check", broken)
    code = main(["verify", "--composition", "2,1,1,2", "--checks", "vanishing", "--out", str(tmp_path / "r.json")])
    assert code == 2
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["pass"] is False


def test_verify_inconclusive_exit_code(tmp_path, monkeypatch):
    from nilfibre import conformance
    from nilfibre.analysis import OrbitalReport

    monkeypatch.setattr(
        conformance,
        "orbital_variety_test",
        lambda ct, roots, rng=None: OrbitalReport("inconclusive", None, 0, (1, 2, 3), False),
    )
    code = main(["verify", "--composition", "2,1,1,2", "--checks", "orbital", "--out", str(tmp_path / "r.json")])
    assert code == 3
