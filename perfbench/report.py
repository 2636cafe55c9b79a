#!/usr/bin/env python3
"""Run every workload once and print the end-to-end table, optionally with
the per-layer table of a traced run.

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--trace]

Each workload runs in its own `run.py` process, as the command in
BENCHMARK.json runs it. The table gives all six end-to-end metrics with their units:
the five that BENCHMARK.json bounds, with wall_s per iteration given as
its median and the highest percentile with ten samples beyond it, plus
error_rate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    tagged = {ln.split(" ", 2)[1]: json.loads(ln.split(" ", 2)[2]) for ln in lines if ln.startswith("# machine ") or ln.startswith("# detail ")}
    return tagged["machine"], tagged["detail"], json.loads(lines[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", action="store_true", help="also print the per-layer table")
    args = p.parse_args()

    rows, layers, machine = [], {}, None
    for name, w in WORKLOADS.items():
        machine, d, res = run(name, args.seed, args.seconds, False)
        tail = d["wall_tail"]
        tail = "n/a" if tail is None else f"p{tail['percentile']:.0f} {tail['value']:.3f}"
        m = {k: v["value"] for k, v in res["metrics"].items()}
        rows.append(
            [name, f"{m['setup_s']:.3f}", f"{m['wall_s']:.3f} ({tail}, n={d['iterations']})",
             f"{m['units_per_s']:.2f} {w.unit}/s", f"{m['cpu_s']:.3f}", f"{m['peak_rss_mb']:.1f}",
             f"{d['error_rate']:.4f} ({res['failed']}/{res['attempted']})"]
        )
        if args.trace:
            layers[name] = run(name, args.seed, args.seconds, True)[2]["metrics"]

    print(f"machine: {json.dumps(machine, sort_keys=True)}\n")
    head = ["workload", "setup_s [s]", "wall_s [s] median (tail, n)", "units_per_s [1/s]",
            "cpu_s [s]", "peak_rss_mb [MB]", "error_rate [ratio]"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for r in rows:
        print("| " + " | ".join(r) + " |")
    if layers:
        names = list(layers)
        print("\n| metric | unit | " + " | ".join(names) + " |")
        print("|" + "---|" * (len(names) + 2))
        for metric, v in layers[names[0]].items():
            cells = [f"{layers[n][metric]['value']:.4g}" for n in names]
            print(f"| {metric} | {v['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
