"""Command-line frontend: enumerate tableaux, verify theorems, sweep ranges.

Exit codes: 0 pass, 1 usage or I/O error, 2 theorem violation,
3 inconclusive-only.  Reports are byte-identical across runs with the same
arguments and seed; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .builder import component_tableaux
from .conformance import ALL_CHECKS, SCHEMA_VERSION, sweep, verify_composition
from .core import Composition, InvalidInput, diagram_of
from .invariants import DEFAULT_SYMBOLIC_MAX_N
from .render import latex_component, latex_matrix, render_component, render_matrix
from .roots import excluded_roots

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_enumerate(args) -> int:
    composition = Composition.parse(args.composition)
    tableaux = component_tableaux(composition.parts)
    if args.format == "json":
        payload = {
            "schemaVersion": SCHEMA_VERSION,
            "composition": list(composition.parts),
            "diagram": diagram_of(composition.parts).to_json(),
            "tableaux": [
                {
                    **ct.to_json(),
                    "excludedRoots": excluded_roots(ct).to_json(),
                }
                for ct in tableaux
            ],
        }
        _write(_dump(payload), args.out)
    elif args.format == "latex":
        blocks = []
        for idx, ct in enumerate(tableaux):
            roots = excluded_roots(ct)
            blocks.append(latex_component(ct, idx))
            blocks.append(latex_matrix(ct, roots, idx))
        _write("\n\n".join(blocks) + "\n", args.out)
    else:
        blocks = [f"composition {composition}  tableaux {len(tableaux)}"]
        for idx, ct in enumerate(tableaux):
            roots = excluded_roots(ct)
            blocks.append(f"-- tableau {idx} --")
            blocks.append(render_component(ct))
            blocks.append(render_matrix(ct, roots))
        _write("\n".join(blocks) + "\n", args.out)
    return EXIT_PASS


def _parse_checks(text: str) -> tuple[str, ...]:
    if text == "all":
        return ALL_CHECKS
    checks = tuple(piece.strip() for piece in text.split(",") if piece.strip())
    if not checks:
        raise InvalidInput(f"no checks given; known: {', '.join(ALL_CHECKS)}")
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise InvalidInput(f"unknown checks {sorted(unknown)}; known: {', '.join(ALL_CHECKS)}")
    return checks


def cmd_verify(args) -> int:
    composition = Composition.parse(args.composition)
    checks = _parse_checks(args.checks)
    started = time.monotonic()
    report = verify_composition(
        composition, checks, seed=args.seed, symbolic_max_n=args.symbolic_max_n
    )
    print(f"verify {composition}: {time.monotonic() - started:.2f}s", file=sys.stderr)
    _write(_dump(report), args.out)
    if not report["pass"]:
        return EXIT_VIOLATION
    if report["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_sweep(args) -> int:
    checks = _parse_checks(args.checks)
    started = time.monotonic()
    report = sweep(
        args.n,
        checks,
        seed=args.seed,
        symbolic_max_n=args.symbolic_max_n,
        threads=args.threads,
    )
    print(f"sweep n<={args.n}: {time.monotonic() - started:.2f}s", file=sys.stderr)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for n, block in report["perN"].items():
            with open(os.path.join(args.out, f"sweep_n{n}.json"), "w") as handle:
                handle.write(_dump({**{k: report[k] for k in ("schemaVersion", "seed", "checks")}, "n": int(n), **block}))
        summary = {k: v for k, v in report.items() if k != "perN"}
        with open(os.path.join(args.out, "summary.json"), "w") as handle:
            handle.write(_dump(summary))
    else:
        summary = {k: v for k, v in report.items() if k != "perN"}
        summary["perN"] = {
            n: {"compositions": block["compositions"], "tableaux": block["tableaux"]}
            for n, block in report["perN"].items()
        }
        _write(_dump(summary), None)
    if not report["pass"]:
        return EXIT_VIOLATION
    if report["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _thread_count(text: str) -> int:
    """A positive worker count, clamped to the available CPUs."""
    return min(_positive_int(text), os.cpu_count() or 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilfibre",
        description="Tableau enumeration and theorem verification for parabolic nilradicals of sl(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--seed", type=int, default=0, help="seed of the orbital check's random samples")
    common.add_argument("--threads", type=_thread_count, default=1, help="worker processes, at most the CPU count")
    common.add_argument(
        "--symbolic-max-n",
        type=_int_at_least(0),
        default=DEFAULT_SYMBOLIC_MAX_N,
        help="largest interval handled by full symbolic expansion",
    )

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
