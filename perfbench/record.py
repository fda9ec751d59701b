"""Record the input digests and expected counts that the benchmark checks.

Run from the repository root after a change that deliberately alters
what the generators emit or what the library computes for a seed:

    python3 perfbench/record.py

It rewrites perfbench/records.json for seeds 0..99: the sha256 of every
workload's generated inputs, the arrow and compose-entry counts of each
gauge family, and the digest of the seed 42 check-theorems report.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(100)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gpdkit as gp
    from workloads import WORKLOADS, _capture_cli, sha256, theorems_argv

    records: dict = {"inputs": {name: {} for name in WORKLOADS}, "gauge_counts": {}}
    work = ROOT / ".perfbench_work" / "record"
    try:
        code, report = _capture_cli(theorems_argv(42, ROOT / "fixtures"))
        if code != 0:
            raise SystemExit(f"check-theorems --seed 42 exited {code}")
        records["theorems_report_42"] = sha256([report])
        for seed in SEEDS:
            for name, cls in WORKLOADS.items():
                wl = cls(ROOT, seed, work / f"{name}-{seed}", records)
                wl.setup()
                records["inputs"][name][str(seed)] = sha256(wl.input_texts())
                if name == "gauge":
                    counts = {}
                    for family, texts in {**wl.families, **wl.hs_families}.items():
                        members = [gp.loads(t) for t in texts]
                        build = (gp.build_hs_gauge_groupoid if family in wl.hs_families
                                 else gp.build_gauge_groupoid)
                        G = build(members).groupoid
                        counts[family] = [len(G.arrows), len(G.compose)]
                    records["gauge_counts"][str(seed)] = counts
            print(f"seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "records.json", "w", encoding="utf-8") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
