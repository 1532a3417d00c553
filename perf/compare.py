#!/usr/bin/env python3
"""Compares two sets of islabel_perf records under the benchmark's rules.

    python3 perf/compare.py PARENT CHANGE
    python3 perf/compare.py --self-test

PARENT and CHANGE are directories of records (or single record files), as
written by islabel_perf --out. Each record is one run; it may hold several
workloads. Runs of a workload are paired in order of (seed, file name), so
for a change claim run the parent and the change alternately with the same
seeds. Rules, per (workload, end-to-end metric of BENCHMARK.json):

  improved    at least 10 pairs, the change wins at least 9 of every 10,
              and the medians differ by more than the parent's IQR;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, unless every change run beats every parent run;
  unchanged   otherwise.

End-to-end numbers the records carry beyond BENCHMARK.json (lat_p99_us,
reload_ms, raw_qps, raw_lat_p50_us, reference_ns) and, for trace records
(--trace 1), the per-layer metrics have no bound: their rows report the
medians with the verdict "info".

Records whose fingerprints differ (graph size and checksum, k, label
entries, the serving settings, phase lengths, scale, build type) are
refused, exit 2. Exit 1 on any regression or any rise in the
failed-request ratio, else 0.
"""

import argparse
import json
import os
import statistics
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(PERF_DIR), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path):
    """{workload: [(seed, file, record, run)]} for one set of records."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    runs = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            record = json.load(fh)
        for name, run in record["workloads"].items():
            runs.setdefault(name, []).append((record["seed"], f, record, run))
    for name in runs:
        runs[name].sort(key=lambda r: (r[0], r[1]))
    return runs


def fingerprint(record, run):
    return {
        "inputs": run["fingerprint"],
        "settings": run["settings"],
        "phases_s": record["phases_s"],
        "smoke": record["smoke"],
        "trace": record["trace"],
        "build_type": record["build_type"],
    }


def spread(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def judge(parent, change, better, bound):
    """Verdict for one metric; `better` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, p_q1, p_q3 = spread(parent)
    c_med = spread(change)[0]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if bound is None:
        return "info", wins, len(pairs), worse
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > p_q3 - p_q1):
        return "improved", wins, len(pairs), worse
    if worse > bound:
        return "regressed", wins, len(pairs), worse
    p_spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_spread > bound and not all_better:
        return "unresolved", wins, len(pairs), worse
    return "unchanged", wins, len(pairs), worse


def fail_ratio(runs):
    attempted = sum(r[3]["attempted"] for r in runs)
    return sum(r[3]["failed"] for r in runs) / max(1, attempted)


def compare(parent_path, change_path, bench, out=sys.stdout):
    parent = load_runs(parent_path)
    change = load_runs(change_path)
    refused = []
    for name in sorted(set(parent) & set(change)):
        prints = {json.dumps(fingerprint(rec, run), sort_keys=True)
                  for _, _, rec, run in parent[name] + change[name]}
        if len(prints) > 1:
            refused.append(name)
            print(f"refused: {name}: records differ in fingerprint:", file=out)
            for p in sorted(prints):
                print(f"  {p}", file=out)
    if refused:
        return 2
    if not set(parent) & set(change):
        print("refused: the two sets share no workload", file=out)
        return 2

    worst = 0
    print(f"{'workload':<15} {'metric':<26} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>8} {'wins':>6} "
          f"{'bound':>6}  verdict", file=out)
    for name in sorted(set(parent) & set(change)):
        p_runs = parent[name]
        c_runs = change[name]
        if p_runs[0][2]["trace"]:
            specs = [dict(m, bound=None) for m in bench["per_layer"]]
        else:
            # Ungated end-to-end numbers the records carry (lat_p99_us,
            # reload_ms, the uncorrected timings) are reported too, without
            # a verdict.
            known = {m["name"]
                     for m in bench["end_to_end"] + bench["per_layer"]}
            extra = sorted({k for r in p_runs for k in r[3]["metrics"]}
                           - known - {"fail_ratio"})
            specs = bench["end_to_end"] + [
                {"name": n, "bound": None,
                 "better": "higher" if n.endswith("qps") else "lower"}
                for n in extra]
        for spec in specs:
            metric = spec["name"]
            pv = [r[3]["metrics"][metric]["value"] for r in p_runs
                  if metric in r[3]["metrics"]]
            cv = [r[3]["metrics"][metric]["value"] for r in c_runs
                  if metric in r[3]["metrics"]]
            if not pv or not cv:
                continue
            verdict, wins, pairs, worse = judge(pv, cv, spec["better"],
                                                spec["bound"])
            pm, pq1, pq3 = spread(pv)
            cm, cq1, cq3 = spread(cv)
            bound = ("-" if spec["bound"] is None
                     else f"{100 * spec['bound']:.1f}%")
            print(f"{name:<15} {metric:<26} "
                  f"{f'{pm:.4g} [{pq1:.4g}, {pq3:.4g}]':>34} "
                  f"{f'{cm:.4g} [{cq1:.4g}, {cq3:.4g}]':>34} "
                  f"{100 * worse:>7.2f}% {f'{wins}/{pairs}':>6} {bound:>6}  "
                  f"{verdict}", file=out)
            if verdict == "regressed":
                worst = 1
        p_fail = fail_ratio(parent[name])
        c_fail = fail_ratio(change[name])
        rose = c_fail > p_fail
        print(f"{name:<15} {'fail_ratio':<26} {p_fail:>34.3g} "
              f"{c_fail:>34.3g} {'':>8} {'':>6} {'0':>6}  "
              f"{'regressed' if rose else 'unchanged'}", file=out)
        if rose:
            worst = 1
    return worst


def self_test():
    """Runs the rules over perf/testdata/parent and variants of it."""
    import copy
    import io
    import shutil
    import tempfile

    bench = {"end_to_end": [
        {"name": "qps", "unit": "req/s", "better": "higher", "bound": 0.05},
        {"name": "lat_p99_us", "unit": "us", "better": "lower", "bound": 0.05},
    ], "per_layer": []}
    parent_dir = os.path.join(PERF_DIR, "testdata", "parent")
    base = [run[2] for runs in load_runs(parent_dir).values() for run in runs]

    def variant(edit):
        out = []
        for i, rec in enumerate(base):
            rec = copy.deepcopy(rec)
            for run in rec["workloads"].values():
                edit(i, run)
            out.append(rec)
        return out

    def scale(metric, factor):
        def edit(_, run):
            run["metrics"][metric]["value"] *= factor
        return edit

    def refingerprint(_, run):
        run["fingerprint"]["k"] += 1

    def fail(i, run):
        if i == 0:
            run["failed"] += 1

    cases = [  # (label, change records, exit code, verdict that must appear)
        ("same runs", variant(lambda i, run: None), 0, None),
        ("qps +30% in every pair", variant(scale("qps", 1.3)), 0, "improved"),
        ("qps -20%", variant(scale("qps", 0.8)), 1, "regressed"),
        ("p99 +3%, within its bound", variant(scale("lat_p99_us", 1.03)), 0,
         None),
        ("another graph", variant(refingerprint), 2, None),
        ("one failed request", variant(fail), 1, "regressed"),
    ]
    tmp = tempfile.mkdtemp()
    failures = 0
    try:
        for label, records, want_code, want_verdict in cases:
            case_dir = os.path.join(tmp, str(len(os.listdir(tmp))))
            os.makedirs(case_dir)
            for i, rec in enumerate(records):
                with open(os.path.join(case_dir, f"run{i:02d}.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump(rec, fh)
            text = io.StringIO()
            code = compare(parent_dir, case_dir, bench, out=text)
            verdicts = {line.split()[-1]
                        for line in text.getvalue().splitlines()
                        if line.split()}
            if want_verdict is None:
                ok = not verdicts & {"improved", "regressed"}
            else:
                ok = want_verdict in verdicts
            ok = ok and code == want_code
            print(f"{'ok  ' if ok else 'FAIL'} {label}: exit {code}")
            if not ok:
                failures += 1
                print(text.getvalue())
    finally:
        shutil.rmtree(tmp)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("PARENT and CHANGE are required")
    with open(BENCHMARK, encoding="utf-8") as f:
        bench = json.load(f)
    return compare(args.parent, args.change, bench)


if __name__ == "__main__":
    sys.exit(main())
