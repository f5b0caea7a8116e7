#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median
and spread (interquartile distance as a share of the median), checked
against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workloads eval-mem,compute --seeds 1-10 \
        [--trace 0] [--out set2.json] [--against set1.json]

Run from the repository root. A spread must stay below a third of the
metric's bound. With --against, each median must also be no worse than
the median of the earlier set in that file by more than the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = json.load(open(args.against)) if args.against else {}
    summary = {}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            res = subprocess.run(cmd, capture_output=True, text=True)
            if res.returncode != 0:
                print(f"{wl} seed {seed}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
                sys.exit(1)
            lines = res.stdout.strip().splitlines()
            host = next((l[len("host: "):] for l in lines if l.startswith("host: ")), "")
            last = json.loads(lines[-1])
            if not last["correct"] or last["failed"]:
                ok = False
                print(f"{wl} seed {seed}: incorrect\n{res.stdout}", file=sys.stderr)
            runs.append(last)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(last["metrics"].items())), flush=True)
        summary[wl] = {"host": host, "seeds": seeds_of(args.seeds)}
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "unit": runs[0]["metrics"][name]["unit"], "values": vals}
            verdict = ""
            if name in bounds:
                limit = bounds[name] / 3
                if spread >= limit:
                    verdict = f"  SPREAD >= bound/3 ({limit:.3f})"
                    ok = False
                else:
                    verdict = f"  (bound/3 = {limit:.3f})"
                if name in earlier.get(wl, {}):
                    before = earlier[wl][name]["median"]
                    worse = (med - before) / before if lower[name] else (before - med) / before
                    verdict += f"  vs earlier {before:.6g}: {-worse:+.3f}"
                    if worse > bounds[name]:
                        verdict += " WORSE BY MORE THAN BOUND"
                        ok = False
            print(f"  {wl:12s} {name:24s} median {med:12.6g}  spread {spread:.4f}{verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
