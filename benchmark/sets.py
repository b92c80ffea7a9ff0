#!/usr/bin/env python3
"""Sets of benchmark runs: make one or a pair, read a spread, compare two.

    python3 benchmark/sets.py run --out a.json [--pair b.json [--dir-b <checkout>]]
                                  [--runs 10] [--seed 1] [--trace 1]
    python3 benchmark/sets.py spread a.json
    python3 benchmark/sets.py compare a.json b.json

`run` executes the command of BENCHMARK.json once per workload and seed
(seeds --seed .. --seed + runs - 1) and keeps every result line. With
`--pair` every run is made twice, turn and turn about (the first side
first on even seeds, the second on odd ones), and the second side's runs
go to the second file: two sets made under the same weather. `--dir-b`
runs the second side in another checkout, for a parent against a change;
without it both sides are this checkout, which is an A/A pair.

`spread` prints, per metric and workload, the median and the distance
between the first and third quartile as a share of it.

`compare` prints, per end-to-end metric and workload, both medians, how
much worse the second is as a share of the first, both spreads, and a
verdict against the metric's bound in BENCHMARK.json: `pass`, `FAIL`, or
`unresolved` where the sets cannot tell: a set's own spread is wider than
the bound, or the second is worse by more than the bound but the two
were not made as a pair, so the weather between them is in the
difference. It exits with 1 if any cell fails.

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def contract():
    with open("BENCHMARK.json") as file:
        return json.load(file)


def one_run(spec, cwd, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True, check=True)
    took = time.monotonic() - start
    detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    print(f"{cwd} {workload} seed {seed}: correct={result['correct']} "
          f"failed={result['failed']} noisy_host={detail['noisy_host']} "
          f"took {took:.1f} s", flush=True)
    return {"workload": workload, "seed": seed, "took_s": took, "detail": detail, **result}


def run_sets(args):
    spec = contract()
    sides = [(".", args.out, [])]
    if args.pair:
        sides.append((args.dir_b, args.pair, []))
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(args.seed, args.seed + args.runs):
            order = sides if seed % 2 == 0 else sides[::-1]
            for cwd, _, runs in order:
                runs.append(one_run(spec, cwd, workload, seed, args.trace))
    pair = f"{args.out} {args.pair} {time.time():.0f}" if args.pair else None
    for _, path, runs in sides:
        with open(path, "w") as file:
            json.dump({"trace": args.trace, "pair": pair, "runs": runs}, file, indent=1)
    return 0 if all(run["correct"] for _, _, runs in sides for run in runs) else 1


def values(path):
    """({(metric, workload): [value per run]}, pair mark) of a set file."""
    with open(path) as file:
        made = json.load(file)
    table = {}
    for run in made["runs"]:
        for metric, reading in run["metrics"].items():
            table.setdefault((metric, run["workload"]), []).append(reading["value"])
    return table, made.get("pair")


def spread_of(vals):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(statistics.median(vals))


def spread(args):
    print(f"{'metric':34} {'workload':14} {'median':>14} {'iqr/median':>11}")
    for (metric, workload), vals in sorted(values(args.set)[0].items()):
        if len(vals) < 2 or statistics.median(vals) == 0:
            continue
        print(f"{metric:34} {workload:14} {statistics.median(vals):14.4f} "
              f"{spread_of(vals):11.4f}")
    return 0


def compare(args):
    metrics = {m["name"]: m for m in contract()["end_to_end"]}
    (first, pair_a), (second, pair_b) = values(args.a), values(args.b)
    paired = pair_a is not None and pair_a == pair_b
    if not paired:
        print("these sets were not made as a pair (run --pair): the weather "
              "between them is in every difference")
    verdicts = {"pass": 0, "FAIL": 0, "unresolved": 0}
    print(f"{'metric':20} {'workload':14} {'median a':>14} {'median b':>14} "
          f"{'b worse by':>10} {'spread a':>9} {'spread b':>9} {'bound':>6}")
    for key in sorted(first):
        metric, workload = key
        if metric not in metrics or key not in second:
            continue
        bound = metrics[metric]["bound"]
        a, b = statistics.median(first[key]), statistics.median(second[key])
        worse = (b - a) / a if metrics[metric]["better"] == "lower" else (a - b) / a
        spreads = spread_of(first[key]), spread_of(second[key])
        if max(spreads) > bound:
            verdict = "unresolved"
        elif worse <= bound:
            verdict = "pass"
        else:
            verdict = "FAIL" if paired else "unresolved"
        verdicts[verdict] += 1
        print(f"{metric:20} {workload:14} {a:14.4f} {b:14.4f} {worse:+10.4f} "
              f"{spreads[0]:9.4f} {spreads[1]:9.4f} {bound:6.2f}  {verdict}")
    print(", ".join(f"{count} {verdict}" for verdict, count in verdicts.items()))
    return 1 if verdicts["FAIL"] else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run")
    run.add_argument("--out", required=True)
    run.add_argument("--pair")
    run.add_argument("--dir-b", default=".")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.set_defaults(call=run_sets)
    show = commands.add_parser("spread")
    show.add_argument("set")
    show.set_defaults(call=spread)
    both = commands.add_parser("compare")
    both.add_argument("a")
    both.add_argument("b")
    both.set_defaults(call=compare)
    args = parser.parse_args()
    return args.call(args)


if __name__ == "__main__":
    sys.exit(main())
