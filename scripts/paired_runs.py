#!/usr/bin/env python3
"""Alternating parent/tip perf-ledger pairs, and the claim rule's verdict.

    scripts/paired_runs.py BASE_REV [--pairs N] [--pairs-for WORKLOAD=N ...]
        [--first-seed S] [--workloads W,W,...] [--claim WORKLOAD:METRIC]
        [--experiment NAME] [--out BENCH_xx.json] [--base-dir DIR]

Builds the ledger (`benchmark/`) twice, once in a checkout of BASE_REV and
once in the working tree, then runs `perf-ledger --workload W --seed S
--trace 0` from each side's root for N seeds of every workload, from
`--first-seed` (default 1) on, so that a second batch adds fresh seeds.
Each run lasts the ledger's default length (the `run_seconds` of
BENCHMARK.json); the script does not set it. The two runs of a pair alternate which side goes first: the
parent on even seeds, the tip on odd ones. For each end-to-end metric
(the `end_to_end` list of BENCHMARK.json) it prints both sides' median,
q1 and q3, the change of the median in %, and in how many pairs the tip
read lower; for the `--claim` metric it also prints the claim rule's
verdict (`claim_verdict`). With `--out`, every run and every statistic is
written as JSON in the shape of the BENCH_*.json files.

The base checkout is a `git worktree` made for the run and removed after
it, unless `--base-dir` names an existing checkout of BASE_REV to use
instead. Nothing under `benchmark/` is changed on either side.

`python3 -m doctest scripts/paired_runs.py` runs the examples below.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

WORKLOADS = [
    "pingpong_small",
    "stream_large",
    "fanin_overload",
    "lossy_ladder",
    "coll_1024",
    "nas_cg_64",
    "threaded_injection",
]


def quartiles(xs):
    """(q1, median, q3) of `xs`, by linear interpolation between ranks.

    >>> quartiles([4, 1, 3, 2])
    (1.75, 2.5, 3.25)
    >>> quartiles([5])
    (5.0, 5.0, 5.0)
    """
    s = sorted(xs)

    def at(p):
        k = (len(s) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (k - lo)

    return at(0.25), at(0.5), at(0.75)


def claim_verdict(parent, tip, better="lower"):
    """The claim rule over paired runs (`parent[i]` and `tip[i]` share a seed).

    A gain holds when the tip is better in at least nine of every ten
    pairs, and its median beats the parent's by more than the parent's
    interquartile range.

    >>> parent = [30.1, 29.8, 31.0, 30.4, 29.5, 30.9, 30.2, 31.3, 29.9, 30.6]
    >>> tip = [19.6, 19.2, 20.1, 19.4, 29.9, 19.8, 19.3, 20.4, 19.0, 19.7]
    >>> v = claim_verdict(parent, tip)
    >>> (v["wins"], v["pairs"], v["met"])
    (9, 10, True)
    >>> claim_verdict(parent, [p - 0.1 for p in parent])["met"]
    False
    >>> claim_verdict([1, 2, 3], [2, 3, 4], better="higher")["wins"]
    3
    """
    assert len(parent) == len(tip) and parent, "one tip run per parent run"
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, t in zip(parent, tip) if sign * (p - t) > 0)
    q1, parent_median, q3 = quartiles(parent)
    tip_median = quartiles(tip)[1]
    gap = sign * (parent_median - tip_median)
    return {
        "parent_median": parent_median,
        "tip_median": tip_median,
        "median_change_pct": round(100 * (tip_median - parent_median) / parent_median, 2),
        "wins": wins,
        "pairs": len(parent),
        "parent_iqr": q3 - q1,
        "median_gap": gap,
        "met": 10 * wins >= 9 * len(parent) and gap > q3 - q1,
    }


def git(*args, cwd=None):
    out = subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)
    return out.stdout.strip()


def tip_rev(root):
    """HEAD of the working tree, marked when the tree has changes on top."""
    dirty = git("status", "--porcelain", "--untracked-files=no", cwd=root)
    return git("rev-parse", "HEAD", cwd=root) + (" + uncommitted changes" if dirty else "")


def build(root):
    manifest = os.path.join(root, "benchmark", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest]
    subprocess.run(cmd, cwd=root, check=True)


def run_one(root, workload, seed):
    """One ledger run from `root`: the result line's JSON."""
    ledger = os.path.join(root, "benchmark", "target", "release", "perf-ledger")
    cmd = [ledger, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [ln for ln in out.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        sys.exit(f"{workload} seed {seed} in {root} printed no result:\n{out.stderr}")
    return json.loads(lines[-1])


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "host_cores": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
    }


def summarise(runs, metrics):
    """Per-metric statistics of one workload's paired `runs`."""
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["seed"])
               for side in ("parent", "tip")}
    out = {}
    for m in metrics:
        name, bound = m["name"], m["bound"]
        parent = [r[name] for r in by_side["parent"]]
        tip = [r[name] for r in by_side["tip"]]
        v = claim_verdict(parent, tip, m["better"])

        def side(xs):
            return dict(zip(("q1", "median", "q3"), quartiles(xs)))

        worse = v["median_change_pct"] if m["better"] == "lower" else -v["median_change_pct"]
        out[name] = {
            "parent": side(parent),
            "tip": side(tip),
            "median_change_pct": v["median_change_pct"],
            "tip_lower_in_pairs": sum(1 for p, t in zip(parent, tip) if t < p),
            "bound_pct": round(100 * bound),
            "within_bound": worse <= 100 * bound,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--pairs-for", action="append", default=[], metavar="WORKLOAD=N")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--experiment", default="paired-runs")
    ap.add_argument("--out")
    ap.add_argument("--base-dir")
    args = ap.parse_args()

    tip_root = git("rev-parse", "--show-toplevel")
    base_rev = git("rev-parse", args.base, cwd=tip_root)
    with open(os.path.join(tip_root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    pairs = {w: args.pairs for w in args.workloads.split(",")}
    for spec in args.pairs_for:
        w, n = spec.split("=")
        pairs[w] = int(n)

    scratch = None
    if args.base_dir:
        base_root = os.path.abspath(args.base_dir)
        if git("rev-parse", "HEAD", cwd=base_root) != base_rev:
            sys.exit(f"{base_root} is not a checkout of {args.base}")
    else:
        scratch = tempfile.mkdtemp(prefix="paired-runs-")
        base_root = os.path.join(scratch, "base")
        git("worktree", "add", "--detach", base_root, base_rev, cwd=tip_root)
    try:
        for root in (base_root, tip_root):
            build(root)
        report = {"experiment": args.experiment, "build": "release", **host(),
                  "parent_commit": base_rev, "tip_commit": tip_rev(tip_root),
                  "method": (f"perf-ledger built once per side; each run `perf-ledger --workload <w> "
                             f"--seed <s> --trace 0` from its side's root, {bench['run_seconds']} s each "
                             "(the ledger's default run length); "
                             f"pairs on N seeds from {args.first_seed}, the parent first on even "
                             "seeds; medians and quartiles by linear interpolation over the pairs; median_change_pct "
                             "is (tip - parent) / parent; tip_lower_in_pairs counts pairs where "
                             "the tip read lower."),
                  "workloads": {}}
        sides = {"parent": base_root, "tip": tip_root}
        for w, n in pairs.items():
            runs = []
            for seed in range(args.first_seed, args.first_seed + n):
                order = ("parent", "tip") if seed % 2 == 0 else ("tip", "parent")
                for side in order:
                    res = run_one(sides[side], w, seed)
                    run = {"seed": seed, "side": side, "failed": res["failed"],
                           "attempted": res["attempted"], "correct": res["correct"]}
                    run.update({m["name"]: res["metrics"][m["name"]]["value"] for m in metrics})
                    runs.append(run)
                    print(f"{w} seed {seed} {side}: "
                          + " ".join(f"{m['name']}={run[m['name']]:.4g}" for m in metrics),
                          flush=True)
            stats = summarise(runs, metrics)
            report["workloads"][w] = {
                "pairs": n,
                "metrics": stats,
                "failed_ops": {s: sum(r["failed"] for r in runs if r["side"] == s) for s in sides},
                "attempted_ops": {s: sum(r["attempted"] for r in runs if r["side"] == s)
                                  for s in sides},
                "correct": all(r["correct"] for r in runs),
                "runs": runs,
            }
            print(f"== {w} ({n} pairs)")
            for name, s in stats.items():
                p, t = s["parent"], s["tip"]
                print(f"  {name:<15} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
                      f"tip {t['median']:.4g} [{t['q1']:.4g}, {t['q3']:.4g}]  "
                      f"{s['median_change_pct']:+.2f} %  tip lower {s['tip_lower_in_pairs']}/{n}"
                      + ("" if s["within_bound"] else "  OUTSIDE BOUND"), flush=True)
        if args.claim:
            w, name = args.claim.split(":")
            runs = report["workloads"][w]["runs"]
            better = next(m["better"] for m in metrics if m["name"] == name)
            runs = sorted(runs, key=lambda r: r["seed"])
            parent = [r[name] for r in runs if r["side"] == "parent"]
            tip = [r[name] for r in runs if r["side"] == "tip"]
            v = claim_verdict(parent, tip, better)
            report["claim"] = {"workload": w, "metric": name, **v}
            print(f"claim {w} {name}: tip better in {v['wins']}/{v['pairs']} pairs, median gap "
                  f"{v['median_gap']:.4g} vs parent IQR {v['parent_iqr']:.4g}: "
                  + ("met" if v["met"] else "NOT met"))
        if args.out:
            with open(args.out, "w") as f:
                json.dump(report, f, indent=1)
                f.write("\n")
    finally:
        if scratch:
            git("worktree", "remove", "--force", base_root, cwd=tip_root)
            os.rmdir(scratch)


if __name__ == "__main__":
    main()
