#!/usr/bin/env python3
"""Two-set stability check of the benchmark's end-to-end metrics.

    python3 perfbench/stability.py [--runs 10] [--workload NAME ...]
                                   [--seed-base 1000] [--seconds S]

Run from the repository root. For each workload, runs two sets (A and B)
of the same code, alternating A/B and B/A run by run, every run with its
own seed. Prints, per end-to-end metric, each set's median, quartiles and
spread ((q3 - q1) / median, from statistics.quantiles(n=4)), and whether
the two sets agree within the metric's bound from BENCHMARK.json: both
spreads within the bound (setup_s exempt) and set B's median no worse
than set A's by more than the bound. Raw results are written to
.bench_build/perfbench/stability.json. Exits 1 if any check disagrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench", "stability.json")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    # The reference-figures line is the last JSON object on stderr.
    detail = [ln for ln in done.stderr.splitlines() if ln.startswith("{")]
    result["detail"] = json.loads(detail[-1]) if detail else {}
    return result


def quartiles(values):
    """Median, its quartiles, and the spread (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]

    results = {w: {"A": [], "B": []} for w in names}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in names:
            for side in order:
                seed = args.seed_base + 2 * i + (side == "B")
                r = run_once(w, seed, args.seconds)
                results[w][side].append(r)
                print(f"run {i + 1}/{args.runs} {w} set {side} seed {seed}: "
                      f"correct={r['correct']} " + " ".join(
                          f"{k}={v['value']:.4g}"
                          for k, v in r["metrics"].items()), flush=True)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(results, f, indent=1)

    all_ok = True
    print(f"\n{'workload':20} {'metric':12} {'med A':>10} {'q1-q3 A':>21} "
          f"{'sprd A':>6} {'med B':>10} {'q1-q3 B':>21} {'sprd B':>6} "
          f"{'B/A-1':>6} {'bound':>5}  verdict")
    for w in names:
        sets = results[w]
        shares = {s: {r["failed"] / r["attempted"] for r in sets[s]}
                  for s in sets}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med_a, q1_a, q3_a, iqr_a = quartiles(
                [r["metrics"][name]["value"] for r in sets["A"]])
            med_b, q1_b, q3_b, iqr_b = quartiles(
                [r["metrics"][name]["value"] for r in sets["B"]])
            worse = med_b / med_a - 1 if m["better"] == "lower" \
                else med_a / med_b - 1
            spread_ok = name == "setup_s" or (iqr_a <= bound and
                                              iqr_b <= bound)
            ok = spread_ok and worse <= bound
            steady = max(iqr_a, iqr_b) < bound / 3
            all_ok = all_ok and ok
            verdict = ("agree" if ok else "DISAGREE") + \
                ("" if steady or name == "setup_s" else " (spread > bound/3)")
            print(f"{w:20} {name:12} {med_a:10.4g} "
                  f"{f'{q1_a:.4g}-{q3_a:.4g}':>21} {iqr_a:6.3f} "
                  f"{med_b:10.4g} {f'{q1_b:.4g}-{q3_b:.4g}':>21} "
                  f"{iqr_b:6.3f} {worse:6.3f} {bound:5.2f}  {verdict}")
        correct = all(r["correct"] for s in sets.values() for r in s)
        same_share = shares["A"] == shares["B"] and len(shares["A"]) == 1
        all_ok = all_ok and correct and same_share
        print(f"{w:20} all runs correct: {correct}; failed share "
              f"identical: {same_share}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
