"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/baseline.json

For every workload in BENCHMARK.json: one untraced run per seed, then one
traced run on the first seed. Reports, per end-to-end metric, the median,
the quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, next to the metric's bound; plus the deterministic counts
of every run, so a later run on the same seeds can be compared exactly.
Runs are sequential: one benchmark process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("budget_hit_rate", "converged_rate", "inner_iters_mean")


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench, workload, seed, trace):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n"
                 f"{out.stdout}\n{out.stderr}")
    digest = next(ln.split()[-1] for ln in lines
                  if ln.startswith("report digest:"))
    return json.loads(lines[-1]), digest


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"),
                    help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            res, digest = run(bench, w, seed, 0)
            runs.append({"seed": seed, "attempted": res["attempted"],
                         "failed": res["failed"], "correct": res["correct"],
                         "digest": digest,
                         **{k: v["value"] for k, v in res["metrics"].items()}})
            print(w, seed, json.dumps(runs[-1]), flush=True)
        metrics = {}
        for m, bound in bounds.items():
            s = summary([r[m] for r in runs])
            s.update(bound=bound, unit=res["metrics"][m]["unit"])
            metrics[m] = s
            print(f"{w:<14} {m:<18} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bound})", flush=True)
        entry = {"end_to_end": metrics,
                 "exact_counts": [{k: r[k] for k in
                                   ("seed", "attempted", "failed", "digest",
                                    *EXACT)} for r in runs],
                 "runs": runs}
        res, digest = run(bench, w, args.seeds[0], 1)
        entry["per_layer"] = {"seed": args.seeds[0], "digest": digest,
                              **{k: v["value"] for k, v in
                                 res["metrics"].items()}}
        print(w, "traced", json.dumps(entry["per_layer"]), flush=True)
        result["workloads"][w] = entry
    if args.out:
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True)
                            + "\n")


if __name__ == "__main__":
    main()
