"""Workload definitions, seeded draws and report checking.

Each workload is one fresh process with ``--threads 1``; see README.md for
why each exists.  A report is correct when its bytes are the CLI's own JSON
formatting and, with the seed normalised, its digest matches the one recorded
in ``digests.json``.  For the default seed that is a byte-for-byte check.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DEFAULT_SEED = 0

WORKLOADS = {
    "sweep-n10": {"kind": "sweep", "bound": 10},
    "wide-n14": {"kind": "verify", "draw": 24},
    "deep-n13": {"kind": "verify", "draw": 16},
    "deep-n12-warm": {"kind": "verify", "draw": None, "disk_cache": True},
}


def compositions_of(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, in the same cut-set order as nilfibre's.  Kept
    apart from ``nilfibre.conformance.compositions_of`` so that the
    benchmark's inputs do not change with the code under test."""
    out = []
    for mask in range(1 << (n - 1)):
        parts, run = [], 1
        for bit in range(n - 1):
            if mask >> bit & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def wide_pool(n: int = 14) -> list[tuple[int, ...]]:
    """Compositions with every part <= 2: many tableaux, small generators."""
    return [c for c in compositions_of(n) if max(c) <= 2]


def deep_pool(n: int) -> list[tuple[int, ...]]:
    """c_1 == c_k >= 3 with interior parts below c_1: one full-span pair whose
    interval is all of n, so generator extraction dominates."""
    return [
        c
        for c in compositions_of(n)
        if len(c) >= 3 and c[0] == c[-1] >= 3 and all(p < c[0] for p in c[1:-1])
    ]


def pool(workload: str) -> list[tuple[int, ...]]:
    return {"wide-n14": wide_pool, "deep-n13": lambda: deep_pool(13), "deep-n12-warm": lambda: deep_pool(12)}[workload]()


def draw(workload: str, seed: int, costs: dict[str, int] | None = None) -> list[tuple[int, ...]]:
    """The compositions a verify workload runs for ``seed``.

    The pool is ranked by its recorded ``verify`` cost.  The costliest
    composition is always drawn, last; the others are cut into one stratum
    per remaining draw and one composition is drawn from each, in ascending
    cost.  Every seed then gets the same mix of cheap and costly
    compositions (a plain sample spread the work per pass by 9 % on
    deep-n13 and 17 % on wide-n14), and peak memory, which is what earlier
    compositions retain plus the largest extraction, does not depend on
    where the seed puts the costliest one.
    """
    spec = WORKLOADS[workload]
    candidates = pool(workload)
    if spec["draw"] is None:
        return candidates
    costs = load_costs() if costs is None else costs
    *rest, costliest = sorted(candidates, key=lambda c: (costs[composition_key(c)], c))
    k = spec["draw"] - 1
    rng = random.Random(f"{workload}:{seed}")
    picks = [rng.choice(rest[i * len(rest) // k : (i + 1) * len(rest) // k]) for i in range(k)]
    return picks + [costliest]


def load_costs() -> dict[str, int]:
    with open(Path(__file__).resolve().parent / "costs.json") as handle:
        return json.load(handle)


def composition_key(parts) -> str:
    return "-".join(map(str, parts))


def dump(payload) -> str:
    """The CLI's report formatting."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _normalise_seed(node, seed: int):
    if isinstance(node, dict):
        return {
            k: (DEFAULT_SEED if k == "seed" and v == seed else _normalise_seed(v, seed))
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [_normalise_seed(v, seed) for v in node]
    return node


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def summarize_report(raw: bytes, seed: int) -> dict:
    """Digest of one report file with the seed normalised, whether its bytes
    are the CLI's formatting, and the counts the traced run reports."""
    try:
        payload = json.loads(raw)
    except ValueError:
        return {"digest": None, "raw": _sha(raw), "formatted": False, "modes": {}, "tableaux": 0, "bytes": len(raw)}
    canonical = dump(_normalise_seed(payload, seed)).encode()
    modes: dict[str, int] = {}
    tableaux = 0
    reports = payload["reports"] if "reports" in payload else [payload]
    for report in reports:
        tableaux += report.get("tableauCount", 0)
        for entry in report.get("tableaux", []):
            for pair in entry.get("vanishing", []):
                modes[pair["mode"]] = modes.get(pair["mode"], 0) + 1
    return {
        "digest": _sha(canonical),
        "raw": _sha(raw),
        "formatted": dump(payload).encode() == raw,
        "modes": modes,
        "tableaux": tableaux,
        "bytes": len(raw),
    }


def sweep_files(bound: int) -> dict[str, int]:
    """Report files a ``sweep --n bound --out`` writes, with the number of
    compositions each holds; ``summary.json`` stands for all of them."""
    files = {f"sweep_n{n}.json": 1 << (n - 1) for n in range(1, bound + 1)}
    files["summary.json"] = (1 << bound) - 1
    return files


def count_failures(call: dict, expect: dict[str, tuple[str | None, int]]) -> tuple[int, int]:
    """(attempted, failed) compositions of one CLI call.

    ``call`` holds ``compositions`` (how many the call covers), ``exit``
    (exit code, or None after an exception) and ``reports`` (file name ->
    summary).  ``expect`` maps each report file to its recorded digest (None
    where none is recorded) and the number of compositions it holds.  A
    call that raised or exited nonzero fails all its compositions; otherwise
    each report that is missing, not in the CLI's formatting, or of another
    digest fails the compositions it holds.
    """
    attempted = call["compositions"]
    if call["exit"] != 0:
        return attempted, attempted
    failed = 0
    for name, (digest, holds) in expect.items():
        summary = call["reports"].get(name)
        if summary is None or not summary["formatted"] or (digest is not None and summary["digest"] != digest):
            failed += holds
    return attempted, min(failed, attempted)


def digest_keys(workload: str, seed: int) -> list[str]:
    """The ``digests.json`` entries a run of ``workload`` checks against."""
    spec = WORKLOADS[workload]
    if spec["kind"] == "sweep":
        return [f"{workload}:{name}" for name in sweep_files(spec["bound"])]
    return [f"verify:{composition_key(c)}" for c in draw(workload, seed)]
