"""Does the benchmark repeat?  ``python -m bench.selfcheck``.

Runs two sets of five runs of every workload on the same code,
alternating between the sets so that both see the same weather.  Run
``n`` of either set uses the same seed, so the sets differ by the
machine's noise alone.  For each end-to-end metric it prints both
medians, the quartiles, the spread (interquartile range over median —
of the raw values too, to show what calibration buys) and how the
disagreement between the sets compares with the metric's bound in
``BENCHMARK.json``.  Exits non-zero when a spread exceeds its bound or
the second set's median is worse than the first's by more than the
bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
FIRST_SEED = 100


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    began = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=ROOT, timeout=600)
    seconds = time.perf_counter() - began
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail: "))
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong answers "
                           f"({result['failed']} of {result['attempted']})")
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    raw = {name: detail[f"raw.{name}"] for name in values
           if f"raw.{name}" in detail}
    return {"values": values, "raw": raw, "seconds": seconds}


def spread(values: list[float]) -> float:
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    verdict = 0
    for workload in [entry["name"] for entry in contract["workloads"]]:
        sets: tuple[list[dict], list[dict]] = ([], [])
        for number in range(2 * RUNS):
            run = one_run(workload, FIRST_SEED + number // 2, seconds)
            sets[number % 2].append(run)
            print(f"# {workload} run {number + 1}/{2 * RUNS} "
                  f"({run['seconds']:.1f} s)",
                  file=sys.stderr, flush=True)
        print(f"\n## {workload}\n")
        print("| metric | median A | median B | q1..q3 (all) | spread "
              "| raw spread | B vs A | bound | |")
        print("|---|---|---|---|---|---|---|---|---|")
        for name, entry in metrics.items():
            first = [run["values"][name] for run in sets[0]]
            second = [run["values"][name] for run in sets[1]]
            both = first + second
            raw = [run["raw"][name] for run in sets[0] + sets[1]
                   if name in run["raw"]]
            q1, __, q3 = statistics.quantiles(both, n=4)
            med_a, med_b = statistics.median(first), statistics.median(second)
            worse = (med_b - med_a) / med_a
            if entry["better"] == "higher":
                worse = -worse
            wide = spread(both)
            ok = wide <= entry["bound"] and worse <= entry["bound"]
            if not ok:
                verdict = 1
            raw_text = f"{spread(raw):.1%}" if len(raw) > 1 else "-"
            print(f"| {name} | {med_a:.4g} | {med_b:.4g} "
                  f"| {q1:.4g}..{q3:.4g} | {wide:.1%} | {raw_text} "
                  f"| {worse:+.1%} | {entry['bound']:.0%} "
                  f"| {'ok' if ok else 'DISAGREE'} |")
        sys.stdout.flush()
    return verdict


if __name__ == "__main__":
    sys.exit(main())
