"""Compare two result sets of the benchmark.

    python3 bench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

A result set is a directory of result files written by ``bench/run.py
--results DIR``, typically ten seeds per workload. For every workload and
end-to-end metric the comparator prints each side's quartiles and median,
the change of the median and a verdict:

- ``better``: the new median improves on the base median by more than
  either side's spread, or every new run beats every base run;
- ``worse``: the new median is worse than the base median by more than the
  metric's bound;
- ``unresolved``: either side's spread exceeds the bound, and not every new
  run beats (or, for a regression, loses to) every base run;
- ``same``: none of the above.

Per-layer metrics of traced runs are listed with their medians and change
only, since they carry no bound.

The quality guard, the test-split MAPE of the model a workload trained, is
deterministic for a seed but differs between seeds, so it is compared
seed by seed: ``identical`` when every pair agrees exactly, ``worse`` or
``better`` when the median paired change exceeds ``QUALITY_BOUND``, and
``changed`` otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from stats import quartiles, spread

HERE = os.path.dirname(os.path.abspath(__file__))

#: Median paired relative change of test MAPE that counts as a change in
#: model quality.
QUALITY_BOUND = 0.05


def load_results(directory):
    """({(workload, trace): {metric: [values across runs]}},
    {workload: {seed: test MAPE}})."""
    metrics, quality = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path) as fh:
            doc = json.load(fh)
        runs = metrics.setdefault((doc["workload"], doc["trace"]), {})
        for name, m in doc["metrics"].items():
            runs.setdefault(name, []).append(m["value"])
        if doc.get("test_mape_pct") is not None:
            quality.setdefault(doc["workload"], {})[doc["seed"]] = doc["test_mape_pct"]
    return metrics, quality


def quality_verdict(base, new):
    """Paired by seed: (pairs, median relative change, verdict)."""
    seeds = sorted(set(base) & set(new))
    if not seeds:
        return 0, 0.0, "-"
    changes = sorted((new[s] - base[s]) / base[s] for s in seeds)
    med = quartiles(changes)[1]
    if all(new[s] == base[s] for s in seeds):
        return len(seeds), med, "identical"
    if med > QUALITY_BOUND:
        return len(seeds), med, "worse"
    if med < -QUALITY_BOUND:
        return len(seeds), med, "better"
    return len(seeds), med, "changed"


def change(base, new, better):
    """Relative change of the median, positive when the new side is worse."""
    b = quartiles(base)[1]
    n = quartiles(new)[1]
    if b == 0:
        return 0.0 if n == 0 else float("inf")
    rel = (n - b) / abs(b)
    return rel if better == "lower" else -rel


def verdict(base, new, better, bound):
    """One of 'better', 'worse', 'unresolved', 'same' (see module doc)."""
    lower = better == "lower"
    every_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    every_worse = (min(new) > max(base)) if lower else (max(new) < min(base))
    delta = change(base, new, better)
    if max(spread(base), spread(new)) > bound:
        if every_better:
            return "better"
        if every_worse and delta > bound:
            return "worse"
        return "unresolved"
    if delta > bound:
        return "worse"
    if every_better or -delta > max(spread(base), spread(new)):
        return "better"
    return "same"


def fmt_side(values):
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare(base_dir, new_dir, spec, out=None):
    out = out or sys.stdout
    (base, base_quality), (new, new_quality) = load_results(base_dir), load_results(new_dir)
    verdicts = {}
    print(f"{'workload':18s} {'metric':40s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s}  verdict", file=out)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            b_runs = base.get((workload, trace), {})
            n_runs = new.get((workload, trace), {})
            for m in declared:
                b, n = b_runs.get(m["name"]), n_runs.get(m["name"])
                if not b or not n:
                    continue
                delta = change(b, n, m["better"])
                if "bound" in m:
                    v = verdict(b, n, m["better"], m["bound"])
                    verdicts[(workload, m["name"])] = v
                else:
                    v = "-"
                print(f"{workload:18s} {m['name']:40s} {fmt_side(b):>34s} "
                      f"{fmt_side(n):>34s} {100 * delta:+7.1f}%  {v}", file=out)
        pairs, med, v = quality_verdict(base_quality.get(workload, {}),
                                        new_quality.get(workload, {}))
        if pairs:
            verdicts[(workload, "test_mape_pct")] = v
            print(f"{workload:18s} {'test_mape_pct (paired by seed)':40s} "
                  f"{f'{pairs} seeds':>34s} {'':>34s} {100 * med:+7.1f}%  {v}", file=out)
    return verdicts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                       "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark) as fh:
        spec = json.load(fh)
    verdicts = compare(args.base, args.new, spec)
    if not verdicts:
        print("no end-to-end metric is present in both result sets", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
