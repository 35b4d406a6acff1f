"""Command-line frontend: enumerate tableaux, verify theorems, sweep ranges.

Exit codes: 0 pass, 1 usage or I/O error, 2 theorem violation,
3 inconclusive-only.  Reports are byte-identical across runs with the same
arguments and seed; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from collections.abc import Callable, Iterator
from typing import TextIO

from .builder import component_tableaux
from .conformance import ALL_CHECKS, SCHEMA_VERSION, sweep, validate_checks, verify_composition
from .core import Diagram, InvalidInput, parse_composition
from .render import latex_component, latex_matrix, render_component, render_matrix
from .roots import excluded_roots

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def _dump(handle: TextIO, payload, margin: str = "") -> None:
    """Write ``_ENCODER.encode(payload)``, each line after the first prefixed
    by ``margin``, a few thousand encoder chunks at a time, so the whole text
    is never held.  A JSON string holds no raw newline, so the margin can be
    applied batch by batch."""
    chunks = _ENCODER.iterencode(payload)
    while batch := "".join(itertools.islice(chunks, 4096)):
        handle.write(batch.replace("\n", "\n" + margin) if margin else batch)


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A file written under a temporary name beside ``path``, which becomes
    ``path`` only once the block completes; on an error it is removed.  It
    is opened by ``open``, not ``mkstemp`` as cache entries are, so an output
    gets the mode the user's umask gives, not 0600."""
    partial = f"{path}.partial"
    try:
        with open(partial, "w") as handle:
            yield handle
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _output(out: str | None) -> contextlib.AbstractContextManager[TextIO]:
    return _replacing(out) if out else contextlib.nullcontext(sys.stdout)


def _write_json(payload, out: str | None) -> None:
    with _output(out) as handle:
        _dump(handle, payload)
        handle.write("\n")


def cmd_enumerate(args) -> int:
    diagram = Diagram(parse_composition(args.composition))
    # a bad --out fails here, before any tableau is built
    with _output(args.out) as handle:
        tableaux = component_tableaux(diagram)
        if args.format == "json":
            payload = {
                "schemaVersion": SCHEMA_VERSION,
                "composition": list(diagram.parts),
                "diagram": diagram.to_json(),
                "tableaux": [
                    {
                        **ct.to_json(),
                        "excludedRoots": excluded_roots(ct).to_json(),
                    }
                    for ct in tableaux
                ],
            }
            _dump(handle, payload)
            handle.write("\n")
        elif args.format == "latex":
            blocks = []
            for idx, ct in enumerate(tableaux):
                roots = excluded_roots(ct)
                blocks.append(latex_component(ct, idx))
                blocks.append(latex_matrix(ct, roots, idx))
            handle.write("\n\n".join(blocks) + "\n")
        else:
            blocks = [f"composition {','.join(map(str, diagram.parts))}  tableaux {len(tableaux)}"]
            for idx, ct in enumerate(tableaux):
                roots = excluded_roots(ct)
                blocks.append(f"-- tableau {idx} --")
                blocks.append(render_component(ct))
                blocks.append(render_matrix(ct, roots))
            handle.write("\n".join(blocks) + "\n")
    return EXIT_PASS


def _parse_checks(text: str) -> tuple[str, ...]:
    if text == "all":
        return ALL_CHECKS
    checks = tuple(piece.strip() for piece in text.split(",") if piece.strip())
    if not checks:
        raise InvalidInput(f"no checks given; known: {', '.join(ALL_CHECKS)}")
    return validate_checks(checks)


def cmd_verify(args) -> int:
    diagram = Diagram(parse_composition(args.composition))
    checks = _parse_checks(args.checks)
    # a bad --out fails here, before any check runs
    with _output(args.out) as handle:
        started = time.monotonic()
        report = verify_composition(diagram, checks, seed=args.seed)
        print(f"verify {','.join(map(str, diagram.parts))}: {time.monotonic() - started:.2f}s", file=sys.stderr)
        _dump(handle, report)
        handle.write("\n")
    if not report["pass"]:
        return EXIT_VIOLATION
    if report["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _dump_reports(handle: TextIO, head: dict, reports: Iterator[dict], tail: Callable[[], dict]) -> None:
    """Write what ``_write_json({**head, "reports": list(reports), **tail()})``
    writes, one report at a time, so no list of reports is held.  Under
    ``sort_keys`` the head's keys must sort before "reports" and the tail's
    after it, and ``reports`` must not be empty; ``tail`` is called once the
    reports are exhausted."""
    handle.write(_ENCODER.encode(head)[:-2] + ',\n  "reports": [\n    ')
    separator = ""
    for report in reports:
        handle.write(separator)
        _dump(handle, report, "    ")
        separator = ",\n    "
    handle.write("\n  ],\n" + _ENCODER.encode(tail())[2:] + "\n")


def cmd_sweep(args) -> int:
    checks = _parse_checks(args.checks)
    if args.out:
        # a bad --out fails here, before any composition is verified
        os.makedirs(args.out, exist_ok=True)
    started = time.monotonic()
    reports = sweep(args.n, checks, seed=args.seed, threads=args.threads)
    per_n: dict[str, dict] = {}
    failures: list[list[int]] = []
    inconclusive = False

    def tally(block: dict) -> Iterator[dict]:
        # the next block["compositions"] reports; only their counts, failures
        # and inconclusive flags are kept
        nonlocal inconclusive
        for report in itertools.islice(reports, block["compositions"]):
            block["tableaux"] += report["tableauCount"]
            if not report["pass"]:
                failures.append(report["composition"])
            inconclusive |= report["inconclusive"]
            yield report

    for n in range(1, args.n + 1):
        block = per_n[str(n)] = {"compositions": 1 << (n - 1), "tableaux": 0}
        if not args.out:
            for _ in tally(block):
                pass
            continue
        with _replacing(os.path.join(args.out, f"sweep_n{n}.json")) as handle:
            _dump_reports(
                handle,
                {"checks": list(checks), "compositions": block["compositions"], "n": n},
                tally(block),
                lambda: {"schemaVersion": SCHEMA_VERSION, "seed": args.seed, "tableaux": block["tableaux"]},
            )
    print(f"sweep n<={args.n}: {time.monotonic() - started:.2f}s", file=sys.stderr)
    summary = {
        "schemaVersion": SCHEMA_VERSION,
        "bound": args.n,
        "seed": args.seed,
        "checks": list(checks),
        "failures": failures,
        "pass": not failures,
        "inconclusive": inconclusive,
    }
    if args.out:
        _write_json(summary, os.path.join(args.out, "summary.json"))
    else:
        _write_json({**summary, "perN": per_n}, None)
    if failures:
        return EXIT_VIOLATION
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _ascii_int(text: str) -> int:
    """An optional "-" before ASCII digits, as ``parse_composition`` reads a
    part, so ``int``'s underscores, "+" and other scripts' digits are rejected."""
    digits = text.strip()
    unsigned = digits.removeprefix("-")
    if not (unsigned.isascii() and unsigned.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(digits)


def _positive_int(text: str) -> int:
    value = _ascii_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _thread_count(text: str) -> int:
    """A positive worker count, clamped to the CPUs this process may run on."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(_positive_int(text), usable)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilfibre",
        description="Tableau enumeration and theorem verification for parabolic nilradicals of sl(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--seed", type=_ascii_int, default=0, help="seed of the orbital check's random samples")
    common.add_argument("--threads", type=_thread_count, default=1, help="worker processes, at most the CPU count")

    enum = sub.add_parser("enumerate", help="list the component tableaux")
    enum.add_argument("--composition", required=True)
    enum.add_argument("--format", choices=("text", "json", "latex"), default="text")
    enum.add_argument("--out", default=None, help="output file (default stdout)")
    enum.set_defaults(func=cmd_enumerate)

    verify = sub.add_parser("verify", parents=[common], help="verify the theorems on one composition")
    verify.add_argument("--composition", required=True)
    verify.add_argument("--checks", default="all")
    verify.set_defaults(func=cmd_verify)

    swp = sub.add_parser("sweep", parents=[common], help="verify every composition up to a bound")
    swp.add_argument("--n", type=_positive_int, required=True)
    swp.add_argument("--checks", default="all")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except (InvalidInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
