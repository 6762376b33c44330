#!/usr/bin/env python3
"""Steadiness mode of the benchmark: repeated runs and their comparison.

    python3 perfbench/steady.py run --runs 10 --out A.json [--workloads w1,w2]
                                    [--first-seed 1] [--seconds S]
    python3 perfbench/steady.py compare A.json B.json

`run` runs each workload once per seed (first-seed, first-seed + 1, ...),
untraced, and prints for every end-to-end metric the median, the quartiles
and the spread: the distance between the quartiles as a share of the
median (statistics.quantiles(values, n=4)). The bounds in BENCHMARK.json
are set from these spreads: every spread should stay below a third of its
metric's bound.

`compare` checks two such result sets the way a regression gate reads
them: both sets cover the same workloads, each spread (setup_s's too) is
within its bound, each metric's second median is no worse than the first
by more than its bound, and the share of failed operations is the same.
Exit code 1 when any check fails.
"""
import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: %s seed %s (exit %d)" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    env = json.loads(lines[0])["env"] if len(lines) > 1 else {}
    return env, {"seed": seed, "correct": result["correct"],
                 "attempted": result["attempted"], "failed": result["failed"],
                 "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def print_table(results, spec):
    for workload, runs in results.items():
        print("%s: %d runs, failed %d of %d" % (
            workload, len(runs), sum(r["failed"] for r in runs),
            sum(r["attempted"] for r in runs)))
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]] for r in runs])
            flag = "" if s["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% (bound %g%%)%s" % (
                m["name"], s["median"], s["q1"], s["q3"], 100 * s["spread"],
                100 * m["bound"], flag))


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results, env = {}, {}
    for w in workloads:
        results[w] = []
        for i in range(args.runs):
            env, r = one_run(w, args.first_seed + i, seconds)
            results[w].append(r)
            print("%s seed %d: %s" % (w, r["seed"], json.dumps(r["metrics"])), flush=True)
    with open(args.out, "w") as f:
        json.dump({"env": env, "seconds": seconds, "results": results}, f, indent=1)
    print_table(results, spec)
    return 0


def cmd_compare(args):
    spec = load_spec()
    with open(args.first) as f:
        a = json.load(f)["results"]
    with open(args.second) as f:
        b = json.load(f)["results"]
    if not a or sorted(a) != sorted(b):
        print("the sets cover different workloads: %s vs %s" % (sorted(a), sorted(b)))
        return 1
    ok = True
    for workload in a:
        share = [fractions.Fraction(sum(r["failed"] for r in s[workload]),
                                    sum(r["attempted"] for r in s[workload])) for s in (a, b)]
        if share[0] != share[1]:
            ok = False
            print("%s: failed share differs: %s vs %s" % (workload, share[0], share[1]))
        for m in spec["end_to_end"]:
            sa = summarize([r["metrics"][m["name"]] for r in a[workload]])
            sb = summarize([r["metrics"][m["name"]] for r in b[workload]])
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if m["better"] == "lower" else -change
            verdict = []
            for tag, s in (("first", sa), ("second", sb)):
                if s["spread"] > m["bound"]:
                    verdict.append("%s spread %.1f%% > bound" % (tag, 100 * s["spread"]))
            if worse > m["bound"]:
                verdict.append("median worse by %.1f%% > bound" % (100 * worse))
            ok = ok and not verdict
            print("%-12s %-14s spreads %5.2f%% %5.2f%%  median change %+6.2f%%  bound %g%%  %s" % (
                workload, m["name"], 100 * sa["spread"], 100 * sb["spread"], 100 * change,
                100 * m["bound"], "; ".join(verdict) or "ok"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--workloads", default="")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
