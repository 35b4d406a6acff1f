"""Per-composition verification pipeline and the sweep that streams its reports.

Check names: vanishing, weierstrass, covering, dimension, injectivity,
orbital.  A report is a plain JSON-ready dict, deterministic for a fixed
(composition, checks, seed) triple.
"""

from __future__ import annotations

from collections.abc import Iterator
from random import Random

from .analysis import (
    covering_check,
    injectivity_witness,
    orbital_variety_test,
    tangent_dimension,
)
from .builder import component_tableaux
from .core import Diagram, InvalidInput
from .invariants import vanishing_check, weierstrass_check
from .roots import excluded_roots

ALL_CHECKS = ("vanishing", "weierstrass", "covering", "dimension", "injectivity", "orbital")
SCHEMA_VERSION = 1


def _seeded(seed: int, parts: tuple[int, ...], salt: str) -> Random:
    return Random(f"{seed}:{salt}:{','.join(map(str, parts))}")


def validate_checks(checks: tuple[str, ...]) -> tuple[str, ...]:
    """``checks``, after raising ``InvalidInput`` if one is unknown or repeated."""
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise InvalidInput(f"unknown checks {sorted(unknown)}; known: {', '.join(ALL_CHECKS)}")
    if len(set(checks)) != len(checks):
        raise InvalidInput(f"repeated checks in {','.join(checks)!r}")
    return checks


def verify_composition(
    diagram: Diagram,
    checks: tuple[str, ...] = ALL_CHECKS,
    seed: int = 0,
) -> dict:
    """Run the selected theorem checks on every tableau of the diagram's
    composition."""
    validate_checks(checks)
    parts = diagram.parts
    tableaux = component_tableaux(diagram)
    report: dict = {
        "schemaVersion": SCHEMA_VERSION,
        "composition": list(parts),
        "n": diagram.n,
        "seed": seed,
        "checks": list(checks),
        "tableauCount": len(tableaux),
        "tableaux": [],
        "injectivityPairs": [],
        "engineModes": [],
        "pass": True,
        "inconclusive": False,
    }
    modes: set[str] = set()
    # injectivity reads each tableau's vanishing and Weierstrass results
    vanishings, sections = [], []
    for idx, ct in enumerate(tableaux):
        roots = excluded_roots(ct)
        entry: dict = {"index": idx, "data": ct.choice_json()}
        if "vanishing" in checks or "injectivity" in checks:
            vanishings.append(vanishing_check(ct, roots))
        if "weierstrass" in checks or "injectivity" in checks:
            sections.append(weierstrass_check(ct))
        if "vanishing" in checks:
            result = vanishings[idx]
            modes.update(r.mode for r in result.results)
            entry["vanishing"] = result.to_json()
            report["pass"] &= result.ok
        if "weierstrass" in checks:
            result = sections[idx]
            entry["weierstrass"] = {
                "ok": result.ok,
                "variables": [list(r.variable) if r.variable else None for r in result.results],
            }
            report["pass"] &= result.ok
        if "covering" in checks:
            result = covering_check(ct, roots)
            entry["covering"] = result.to_json()
            report["pass"] &= result.ok and result.labels_ok
        if "dimension" in checks:
            result = tangent_dimension(ct, roots)
            entry["dimension"] = result.to_json()
            entry["jordanType"] = list(result.jordan_of_e)
            report["pass"] &= result.ok
        if "orbital" in checks:
            result = orbital_variety_test(
                ct, roots, rng=_seeded(seed, parts, f"orbital:{idx}")
            )
            entry["orbital"] = result.to_json()
            if result.status == "inconclusive":
                report["inconclusive"] = True
        report["tableaux"].append(entry)
    if "injectivity" in checks:
        for a in range(len(tableaux)):
            for b in range(a + 1, len(tableaux)):
                witness = injectivity_witness(
                    tableaux[a], tableaux[b], vanishings[a], vanishings[b], sections[a], sections[b]
                )
                report["injectivityPairs"].append(
                    {"i": a, "j": b, "witness": witness.to_json()}
                )
                report["pass"] &= witness.ok
    report["engineModes"] = sorted(modes)
    return report


def compositions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^(n-1) compositions of n, in cut-set order."""
    for mask in range(1 << (n - 1)):
        parts = []
        run = 1
        for bit in range(n - 1):
            if mask >> bit & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def sweep(
    bound: int,
    checks: tuple[str, ...] = ALL_CHECKS,
    seed: int = 0,
    threads: int = 1,
) -> Iterator[dict]:
    """Verify every composition of every n <= bound and yield each report as
    it completes, n by n in cut-set order; a failing report is yielded like
    any other."""
    args = ((parts, checks, seed) for n in range(1, bound + 1) for parts in compositions_of(n))
    if threads > 1:
        import multiprocessing

        # ordered imap: reports still come in cut-set order; chunks of 16
        # spread the per-task messaging over many small compositions
        with multiprocessing.get_context("fork").Pool(threads) as pool:
            yield from pool.imap(_verify_job, args, chunksize=16)
    else:
        yield from map(_verify_job, args)


def _verify_job(args) -> dict:
    parts, checks, seed = args
    return verify_composition(Diagram(parts), checks, seed)
