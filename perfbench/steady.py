#!/usr/bin/env python3
"""Steadiness report: run the benchmark on several seeds per workload
and give each end-to-end metric's run-to-run median, quartiles and
spread (interquartile range over median) next to its bound. The
wall-clock metrics the benchmark prints as unresolved get the same
figures, without a bound.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out perfbench/steadiness.json

Run it from the repository root. Quartiles are Python's
statistics.quantiles(values, n=4). A metric is steady when its spread
is below a third of its bound; setup_s has no spread requirement.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    lines = p.stdout.strip().splitlines()
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    steal = next((float(l.split(":")[-1].strip().rstrip("%")) for l in lines if "host CPU steal during" in l), None)
    unresolved = next((json.loads(l[11:]) for l in lines if l.startswith("unresolved ")), {})
    return json.loads(lines[-1]), host, steal, unresolved


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    report = {"runs": args.runs, "first_seed": args.first_seed,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for wl in workloads:
        values = {m: [] for m in bounds}
        loose = {}
        host, steals = {}, []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, host, steal, unresolved = run_once(bench["command"], wl, seed, bench["run_seconds"])
            steals.append(steal)
            for m, v in unresolved.items():
                loose.setdefault(m, []).append(v["value"])
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{wl} seed {seed}: steal={steal}% " + " ".join(f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds), flush=True)
        rows = {}
        for m, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("inf")
            steady = m == "setup_s" or spread < bounds[m] / 3
            ok &= steady
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds[m], "steady": steady, "values": vs}
            print(f"  {wl:14s} {m:22s} median={med:<12.5g} q1={q1:<12.5g} q3={q3:<12.5g} "
                  f"spread={spread:.4f} bound={bounds[m]} {'ok' if steady else 'UNSTEADY'}", flush=True)
        unres = {}
        for m, vs in loose.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            unres[m] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": vs}
            print(f"  {wl:14s} {m:22s} median={med:<12.5g} q1={q1:<12.5g} q3={q3:<12.5g} "
                  f"spread={unres[m]['spread']:.4f} unresolved", flush=True)
        report["workloads"][wl] = {"host": host, "steal_pct": steals, "metrics": rows, "unresolved": unres}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
