#!/usr/bin/env python3
"""Compare two sets of gridmon_bench results.

    perf/compare.py PARENT CHANGE         # judge a change against its parent
    perf/compare.py --self-check A B      # two result sets of one commit

A result set is a directory searched recursively for the <workload>.json
files gridmon_bench writes into its --out directory. Each file is one
invocation. When a side holds several invocations of a workload, each
contributes one sample (its median) and samples pair up in path order, so
name the directories to match the order the runs alternated in (for
example res/parent/01, res/change/01, res/parent/02, ...). A side with a
single invocation contributes that invocation's individual runs.

Rules, per workload and end-to-end metric (bounds from BENCHMARK.json):
  * regressed:  the change's median is worse than the parent's by more
                than the metric's bound;
  * unresolved: the parent's own spread (interquartile range over median)
                exceeds the bound, unless every change sample beats every
                parent sample;
  * gain:       at least 9 of every 10 pairs won (ties count for neither),
                at least 10 pairs, and the medians differ by more than the
                parent's interquartile range;
  * otherwise:  within bound.
Any model.digest that differs for the same workload and seed, within or
across the sides, is flagged: a change meant only to speed the simulator
up must leave the simulated outputs identical.

--self-check instead requires, on every workload, the larger of the two
end-to-end medians to exceed the smaller by no more than the metric's
bound, and identical digests. The check gives the same answer whichever
result set is named first. Exits 1 when a check fails or a regression is
found.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_side(path):
    """workload -> list of result dicts, in path order."""
    files = sorted(pathlib.Path(path).rglob("*.json"))
    side = {}
    for f in files:
        try:
            data = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(data, dict) and "workload" in data and "end_to_end" in data:
            side.setdefault(data["workload"], []).append(data)
    if not side:
        sys.exit(f"compare.py: no gridmon_bench results under {path}")
    return side


def samples(results, metric):
    if len(results) == 1:
        return list(results[0]["end_to_end"][metric]["values"])
    return [r["end_to_end"][metric]["median"] for r in results]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def digests(results):
    """(seed, digest) pairs over every run of every invocation."""
    out = set()
    for r in results:
        for d in r.get("digests", []):
            out.add((r["seed"], d))
        layer = r.get("per_layer", {}).get("model.digest")
        if layer:
            out.add((r["seed"], layer["value"]))
    return out


def digest_problems(*sides):
    seen = {}
    for side in sides:
        for seed, d in side:
            seen.setdefault(seed, set()).add(d)
    return [f"seed {seed}: {len(ds)} different model digests"
            for seed, ds in sorted(seen.items()) if len(ds) > 1]


def judge(parent, change, metric):
    better_lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    spread = iqr / p_med if p_med else 0.0
    worse = (c_med - p_med) / p_med if p_med else 0.0
    if not better_lower:
        worse = -worse

    def beats(c, p):
        return c < p if better_lower else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    all_better = all(beats(c, p) for c in change for p in parent)
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSED"
    elif (len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
          and abs(c_med - p_med) > iqr and beats(c_med, p_med)):
        verdict = "gain"
    else:
        verdict = "within bound"
    return {
        "verdict": verdict,
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "parent": (p_med, q1, q3, len(parent)),
        "change": (c_med, *quartiles(change), len(change)),
        "worse": worse,
        "spread": spread,
        "wins": (wins, len(pairs)),
        "bound": bound,
    }


def compare(args, bounds):
    parent, change = load_side(args.parent), load_side(args.change)
    failed = False
    print(f"{'workload':<18} " + " ".join(f"{m:<26}" for m in bounds) + "digest")
    details = []
    for w in sorted(set(parent) & set(change)):
        cells = []
        for name, metric in bounds.items():
            j = judge(samples(parent[w], name), samples(change[w], name), metric)
            failed |= j["verdict"] == "REGRESSED"
            cells.append(f"{j['verdict']} {j['delta'] * 100:+.1f}%")
            details.append((w, name, j))
        problems = digest_problems(digests(parent[w]), digests(change[w]))
        bad = [r for r in parent[w] + change[w] if not r.get("correct", False)]
        flag = "identical" if not problems else "CHANGED"
        if bad:
            flag += f", {len(bad)} incorrect result file(s)"
            failed = True
        print(f"{w:<18} " + " ".join(f"{c:<26}" for c in cells) + flag)
    print()
    for w, name, j in details:
        p, c = j["parent"], j["change"]
        print(f"{w} {name}: parent median {p[0]:.6g} [q1 {p[1]:.6g}, q3 {p[2]:.6g}, "
              f"n={p[3]}], change median {c[0]:.6g} [q1 {c[1]:.6g}, q3 {c[2]:.6g}, "
              f"n={c[3]}], parent spread {j['spread'] * 100:.1f}% (bound "
              f"{j['bound'] * 100:.0f}%), pairs won {j['wins'][0]}/{j['wins'][1]}")
    missing = set(parent) ^ set(change)
    if missing:
        print(f"\nworkloads on one side only: {', '.join(sorted(missing))}")
    return 1 if failed else 0


def self_check(args, bounds):
    a, b = load_side(args.parent), load_side(args.change)
    failed = False
    for w in sorted(set(a) | set(b)):
        if w not in a or w not in b:
            print(f"{w}: present in one result set only")
            failed = True
            continue
        for name, metric in bounds.items():
            sa, sb = samples(a[w], name), samples(b[w], name)
            ma, mb = statistics.median(sa), statistics.median(sb)
            # Relative to the smaller median, so the order of A and B does
            # not matter.
            low = min(ma, mb)
            diff = abs(mb - ma) / low if low else 0.0
            qa, qb = quartiles(sa), quartiles(sb)
            ok = diff <= metric["bound"]
            failed |= not ok
            print(f"{w} {name}: {ma:.6g} vs {mb:.6g} (larger {diff * 100:.1f}% "
                  f"above smaller, bound {metric['bound'] * 100:.0f}%; spreads "
                  f"{(qa[1] - qa[0]) / ma * 100 if ma else 0:.1f}% / "
                  f"{(qb[1] - qb[0]) / mb * 100 if mb else 0:.1f}%) "
                  f"{'ok' if ok else 'OUT OF BOUND'}")
        problems = digest_problems(digests(a[w]), digests(b[w]))
        bad = [r for r in a[w] + b[w] if not r.get("correct", False)]
        for p in problems:
            print(f"{w} digest: {p}")
        if bad:
            print(f"{w}: {len(bad)} incorrect result file(s)")
        failed |= bool(problems) or bool(bad)
        if not problems and not bad:
            print(f"{w} model.digest: identical")
    print("self-check " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--self-check", action="store_true",
                    help="both result sets come from the same commit")
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    bounds = load_bounds()
    sys.exit(self_check(args, bounds) if args.self_check else compare(args, bounds))


if __name__ == "__main__":
    main()
