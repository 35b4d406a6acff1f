"""Record ``digests.json``: the seed-normalised digest of every report the
workloads can produce, from the current sources; and ``costs.json``: the
time of each pool composition's ``verify``, which the seeded draws stratify
on.

    python3 perfbench/record_digests.py

Covers every composition in the verify pools (any seed draws from them) and
the files of ``sweep --n 10``.  Run it only on a commit whose reports are
known good; the benchmark then fails any report that differs.  Re-recording
the costs changes which compositions a seed draws.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import nilfibre.cli  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOADS, composition_key, pool, summarize_report  # noqa: E402


def main() -> int:
    common = ["--checks", "all", "--threads", "1", "--seed", str(DEFAULT_SEED)]
    digests: dict[str, str] = {}
    costs: dict[str, int] = {}
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        for workload, spec in WORKLOADS.items():
            if spec["kind"] == "sweep":
                out = work / workload
                if nilfibre.cli.main(["sweep", "--n", str(spec["bound"]), *common, "--out", str(out)]) != 0:
                    raise SystemExit(f"{workload} did not pass")
                for path in sorted(out.iterdir()):
                    digests[f"{workload}:{path.name}"] = summarize_report(path.read_bytes(), DEFAULT_SEED)["digest"]
                continue
            for parts in pool(workload):
                key = f"verify:{composition_key(parts)}"
                if key in digests:
                    continue
                path = work / "report.json"
                argv = ["verify", "--composition", ",".join(map(str, parts)), *common, "--out", str(path)]
                started = time.perf_counter()
                if nilfibre.cli.main(argv) != 0:
                    raise SystemExit(f"{parts} did not pass")
                costs[composition_key(parts)] = round((time.perf_counter() - started) * 1e3)
                digests[key] = summarize_report(path.read_bytes(), DEFAULT_SEED)["digest"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, table in (("digests.json", digests), ("costs.json", costs)):
        with open(HERE / name, "w") as handle:
            json.dump(table, handle, indent=0, sort_keys=True)
            handle.write("\n")
    print(f"{len(digests)} digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
