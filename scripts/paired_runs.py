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

Every workload first gets an A/A batch: as many alternating pairs again,
with the working tree's build on both sides. The gap between those two
medians is the session's A/A spread for each metric, the difference the
same code shows against itself here and now; it is written beside the
parent/tip statistics, and the claim rule requires the claimed gap to
exceed it.

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


def aa_spread(a, b):
    """The A/A spread: how far apart the medians of two runs of the same
    code landed.

    >>> aa_spread([10.0, 11.0, 12.0], [10.5, 11.5, 13.0])
    0.5
    >>> aa_spread([3, 1, 2], [2, 3, 1])
    0.0
    """
    return abs(quartiles(a)[1] - quartiles(b)[1])


def claim_verdict(parent, tip, aa, better="lower"):
    """The claim rule over paired runs (`parent[i]` and `tip[i]` share a seed).

    A gain holds when the tip is better in at least nine of every ten
    pairs, and its median beats the parent's by more than the parent's
    interquartile range and by more than the session's A/A spread `aa`.

    >>> parent = [30.1, 29.8, 31.0, 30.4, 29.5, 30.9, 30.2, 31.3, 29.9, 30.6]
    >>> tip = [19.6, 19.2, 20.1, 19.4, 29.9, 19.8, 19.3, 20.4, 19.0, 19.7]
    >>> v = claim_verdict(parent, tip, 0.5)
    >>> (v["wins"], v["pairs"], v["met"])
    (9, 10, True)
    >>> claim_verdict(parent, [p - 0.1 for p in parent], 0.0)["met"]
    False
    >>> claim_verdict([1, 2, 3], [2, 3, 4], 0.0, better="higher")["wins"]
    3

    The same runs, against A/A spreads either side of their 10.65 gap:

    >>> claim_verdict(parent, tip, 4.0)["met"]
    True
    >>> v = claim_verdict(parent, tip, 11.0)
    >>> (v["median_gap"] > v["parent_iqr"], v["met"])
    (True, False)
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
        "aa_spread": aa,
        "met": 10 * wins >= 9 * len(parent) and gap > q3 - q1 and gap > aa,
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


def side_values(runs, side, name):
    """`name` over the runs of `side`, in seed order."""
    return [r[name] for r in sorted((r for r in runs if r["side"] == side), key=lambda r: r["seed"])]


def quartile_dict(xs):
    return dict(zip(("q1", "median", "q3"), quartiles(xs)))


def summarise(runs, metrics, aa_runs):
    """Per-metric statistics of one workload's paired `runs`, with the A/A
    spread of `aa_runs` (sides "a" and "b")."""
    out = {}
    for m in metrics:
        name, bound = m["name"], m["bound"]
        parent = side_values(runs, "parent", name)
        tip = side_values(runs, "tip", name)
        a, b = side_values(aa_runs, "a", name), side_values(aa_runs, "b", name)
        spread = aa_spread(a, b)
        v = claim_verdict(parent, tip, spread, m["better"])
        worse = v["median_change_pct"] if m["better"] == "lower" else -v["median_change_pct"]
        out[name] = {
            "parent": quartile_dict(parent),
            "tip": quartile_dict(tip),
            "median_change_pct": v["median_change_pct"],
            "tip_lower_in_pairs": sum(1 for p, t in zip(parent, tip) if t < p),
            "bound_pct": round(100 * bound),
            "within_bound": worse <= 100 * bound,
            "aa": {"a": quartile_dict(a), "b": quartile_dict(b), "spread": spread,
                   "spread_pct": round(100 * spread / quartiles(a)[1], 2)},
        }
    return out


def run_pairs(sides, workload, seeds, metrics):
    """Alternating pairs of `workload` on `seeds`: the first side of
    `sides` (a name -> root dict) goes first on even seeds."""
    first, second = sides
    runs = []
    for seed in seeds:
        order = (first, second) if seed % 2 == 0 else (second, first)
        for side in order:
            res = run_one(sides[side], workload, seed)
            run = {"seed": seed, "side": side, "failed": res["failed"],
                   "attempted": res["attempted"], "correct": res["correct"]}
            run.update({m["name"]: res["metrics"][m["name"]]["value"] for m in metrics})
            runs.append(run)
            print(f"{workload} seed {seed} {side}: "
                  + " ".join(f"{m['name']}={run[m['name']]:.4g}" for m in metrics),
                  flush=True)
    return runs


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
                             "the tip read lower. Each workload's A/A batch ran first: as many "
                             "pairs again, the working tree's build on both sides (a, b); "
                             "aa.spread is |median(a) - median(b)|."),
                  "workloads": {}}
        sides = {"parent": base_root, "tip": tip_root}
        for w, n in pairs.items():
            seeds = range(args.first_seed, args.first_seed + n)
            aa_runs = run_pairs({"a": tip_root, "b": tip_root}, w, seeds, metrics)
            runs = run_pairs(sides, w, seeds, metrics)
            stats = summarise(runs, metrics, aa_runs)
            report["workloads"][w] = {
                "pairs": n,
                "metrics": stats,
                "failed_ops": {s: sum(r["failed"] for r in runs if r["side"] == s) for s in sides},
                "attempted_ops": {s: sum(r["attempted"] for r in runs if r["side"] == s)
                                  for s in sides},
                "correct": all(r["correct"] for r in runs),
                "runs": runs,
                "aa_runs": aa_runs,
            }
            print(f"== {w} ({n} pairs)")
            for name, s in stats.items():
                p, t = s["parent"], s["tip"]
                print(f"  {name:<15} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
                      f"tip {t['median']:.4g} [{t['q1']:.4g}, {t['q3']:.4g}]  "
                      f"{s['median_change_pct']:+.2f} %  tip lower {s['tip_lower_in_pairs']}/{n}"
                      f"  A/A {s['aa']['spread_pct']:.2f} %"
                      + ("" if s["within_bound"] else "  OUTSIDE BOUND"), flush=True)
        if args.claim:
            w, name = args.claim.split(":")
            entry = report["workloads"][w]
            better = next(m["better"] for m in metrics if m["name"] == name)
            parent = side_values(entry["runs"], "parent", name)
            tip = side_values(entry["runs"], "tip", name)
            aa = entry["metrics"][name]["aa"]["spread"]
            v = claim_verdict(parent, tip, aa, better)
            report["claim"] = {"workload": w, "metric": name, **v}
            print(f"claim {w} {name}: tip better in {v['wins']}/{v['pairs']} pairs, median gap "
                  f"{v['median_gap']:.4g} vs parent IQR {v['parent_iqr']:.4g} and A/A spread "
                  f"{aa:.4g}: "
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
