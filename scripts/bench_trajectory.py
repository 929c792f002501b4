#!/usr/bin/env python3
"""Maintain and gate the repo's committed simulator-speed trajectory.

BENCH_sim_speed.json (repo root) is an append-only list of measurement
entries, one per committed optimization milestone. Each entry records the
per-arm throughput of bench_sim_speed (router-cycles/s for every micro arm
plus the serial sweep's network-cycles/s) and the build provenance.

Subcommands:

  check    Compare a fresh bench_results.json against the LAST committed
           trajectory entry. Fails (exit 1) when any arm is more than
           --max-regression (default 10%) below the committed value, or
           when the results came from a non-NDEBUG build.

  append   Add a new trajectory entry from one or more bench_results.json
           files; with several, each arm records its median across them
           (host timing is noisy, so pin a median of repeated runs) in
           `arms`, and its median absolute deviation in `mad`, with the
           number of runs in `runs`. Refuses non-NDEBUG builds.

Typical workflow after a performance-relevant change:

  ./build/bench/bench_sim_speed json=/tmp/bench.json
  scripts/bench_trajectory.py check --results /tmp/bench.json
  # and when the change is a milestone worth pinning:
  for i in 1 2 3 4 5; do
    ./build/bench/bench_sim_speed json=/tmp/bench_$i.json
  done
  scripts/bench_trajectory.py append --results /tmp/bench_*.json \
      --label "short description of the change"
"""

import argparse
import datetime
import json
import statistics
import sys

# Arms that only run when explicitly enabled on the bench command line
# (e.g. `bench_sim_speed serenade=1` or `service=1`). Their absence from a
# results file is a skipped run, not a regression. sweep_process
# additionally vanishes on hosts without the vixnoc_sweep_worker binary
# next to the bench, so it is treated the same way. Every other committed
# arm is mandatory: missing means the bench silently lost coverage, and
# the check fails.
GATED_ARMS = {"BM_SingleRouter_Serenade", "sweep_process", "service_hits"}


def load_results(path):
    """Extract {arm: cycles/s} plus build info from a bench_sim_speed
    results file (the `json=` output of bench/bench_sim_speed)."""
    with open(path) as f:
        data = json.load(f)
    if data.get("bench") != "sim_speed":
        sys.exit(f"{path}: not a bench_sim_speed results file "
                 f"(bench={data.get('bench')!r})")
    arms = {}
    for micro in data.get("micro", []):
        arms[micro["name"]] = micro["router_cycles_per_second"]
    # The serial sweep run is the end-to-end arm; threads>1 runs vary with
    # host load and are informational only. The crash-isolated subprocess
    # run is its own arm so the cost of process isolation is tracked and
    # gated like any other throughput number.
    for run in data.get("sweep", {}).get("runs", []):
        if run.get("isolate") == "process":
            arms["sweep_process"] = run["network_cycles_per_second"]
        elif run.get("threads") == 1:
            arms["sweep_serial"] = run["network_cycles_per_second"]
    # Service arm (bench_sim_speed service=1): warm-path request rate of
    # the vixnocd daemon serving pure store hits over its Unix socket —
    # the protocol + store-probe overhead with zero simulation in it.
    service = data.get("service")
    if service is not None:
        arms["service_hits"] = service["hit_requests_per_second"]
    if not arms:
        sys.exit(f"{path}: no arms found (empty micro and sweep sections)")
    return arms, data.get("build")


def load_trajectory(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError:
        return {"bench": "sim_speed", "entries": []}
    if data.get("bench") != "sim_speed" or "entries" not in data:
        sys.exit(f"{path}: not a sim_speed trajectory file")
    return data


def require_ndebug(build, path):
    if build is not None and build.get("ndebug") is False:
        sys.exit(f"{path}: results were produced by a non-NDEBUG (debug) "
                 "build; rebuild with CMAKE_BUILD_TYPE=Release")


def cmd_check(args):
    arms, build = load_results(args.results)
    require_ndebug(build, args.results)
    trajectory = load_trajectory(args.trajectory)
    if not trajectory["entries"]:
        sys.exit(f"{args.trajectory}: no committed entries to compare "
                 "against; run `append` first")
    last = trajectory["entries"][-1]
    committed = last["arms"]
    failures = []
    print(f"comparing against entry '{last['label']}' ({last['date']}):")
    for name in sorted(committed):
        if name not in arms:
            if name in GATED_ARMS:
                print(f"  {name:<24} committed {committed[name]:>14.0f}  "
                      "skipped (gated arm not enabled this run)")
            else:
                print(f"  {name:<24} committed {committed[name]:>14.0f}  "
                      "MISSING from results")
                failures.append(name)
            continue
        ratio = arms[name] / committed[name] if committed[name] > 0 else 1.0
        status = "ok"
        if ratio < 1.0 - args.max_regression:
            status = "REGRESSION"
            failures.append(name)
        print(f"  {name:<24} committed {committed[name]:>14.0f}  "
              f"now {arms[name]:>14.0f}  {ratio:>7.2%}  {status}")
    for name in sorted(set(arms) - set(committed)):
        print(f"  {name:<24} new arm (no committed value): "
              f"{arms[name]:.0f}")
    if failures:
        print(f"FAIL: {len(failures)} arm(s) missing or more than "
              f"{args.max_regression:.0%} below the committed trajectory: "
              f"{', '.join(failures)}")
        return 1
    print("perf trajectory OK")
    return 0


def mad(values):
    """Median absolute deviation from the median: the spread of an arm's
    runs, robust to the odd run a busy host slows down."""
    center = statistics.median(values)
    return statistics.median(abs(v - center) for v in values)


def cmd_append(args):
    samples = {}
    build = None
    for path in args.results:
        run_arms, build = load_results(path)
        require_ndebug(build, path)
        for name, value in run_arms.items():
            samples.setdefault(name, []).append(value)
    # An arm missing from some runs (a gated arm, or sweep_process without
    # its worker binary) keeps the median of the runs that have it.
    arms = {name: round(statistics.median(values), 3)
            for name, values in samples.items()}
    trajectory = load_trajectory(args.trajectory)
    entry = {
        "label": args.label,
        "date": args.date or datetime.date.today().isoformat(),
        "build": build,
        "arms": arms,
    }
    if len(args.results) > 1:
        entry["runs"] = len(args.results)
        entry["mad"] = {name: round(mad(values), 3)
                        for name, values in samples.items()}
    trajectory["entries"].append(entry)
    with open(args.trajectory, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    print(f"appended entry '{args.label}' with {len(arms)} arms "
          f"(median of {len(args.results)} run(s)) to {args.trajectory}")
    for name in sorted(entry.get("mad", {})):
        print(f"  {name:<24} median {arms[name]:>14.0f}  "
              f"MAD {entry['mad'][name]:>12.0f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trajectory", default="BENCH_sim_speed.json",
                        help="committed trajectory file")

    check = sub.add_parser("check", parents=[common],
                           help="fail on >max-regression slowdown vs the "
                                "last committed entry")
    check.add_argument("--results", default="bench_results.json",
                       help="bench_sim_speed JSON output to read")
    check.add_argument("--max-regression", type=float, default=0.10,
                       help="allowed fractional slowdown per arm "
                            "(default 0.10)")
    check.set_defaults(func=cmd_check)

    append = sub.add_parser("append", parents=[common],
                            help="append a new trajectory entry")
    append.add_argument("--results", nargs="+",
                        default=["bench_results.json"],
                        help="bench_sim_speed JSON output(s) to read; each "
                             "arm records the median across them")
    append.add_argument("--label", required=True,
                        help="short description of the milestone")
    append.add_argument("--date", default=None,
                        help="ISO date override (default: today)")
    append.set_defaults(func=cmd_append)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
