#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_measure from the checkout's
sources, runs workloads, checks their outputs, and prints the metrics that
BENCHMARK.json names.

  python3 perfbench/run.py
      every workload once (seed 1), timed then traced: every end-to-end
      and per-layer metric printed by name and unit
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      one run; the last stdout line is the JSON result
  python3 perfbench/run.py --steadiness 5 [--seed N]
      every workload 5 times, interleaved, with seeds N..N+4; prints each
      end-to-end metric's median, quartiles and spread against its bound
      (and those of the printed, ungated p99_ms)

Build output and run files go to $CARGO_TARGET_DIR (default .bench_build)
under the checkout root. See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message, code=2):
    log(f"perfbench: {message}")
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    limits = {}
    for w in spec["workloads"]:
        match = re.search(r"SLO (\d+(?:\.\d+)?) ms", w["why"])
        if not match:
            fail(f"workload {w['name']} states no 'SLO <n> ms' limit")
        limits[w["name"]] = float(match.group(1))
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not metrics.valid_metric_name(m["name"]):
            fail(f"invalid metric name {m['name']!r}")
    return spec, limits


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures and builds perfbench_measure; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found at {ROOT}: run from a full checkout")
    out = os.path.join(build_dir(), "perfbench")
    # Configuring every time is cheap once cached, and picks up targets a
    # changed perfbench/CMakeLists.txt adds to an existing build directory.
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench_measure"]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(out, "perfbench_measure")


def run_measure(binary, workload, seed, seconds, trace):
    run_dir = os.path.join(build_dir(), "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--run-dir", run_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"perfbench_measure exited with {proc.returncode} on {workload}",
             1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_provenance(raw):
    p = raw["provenance"]
    print(f"# {raw['workload']} ({raw['mode']}): seed {p['seed']}, "
          f"{p['client_threads']} client threads, {int(p['strategies'])} "
          f"strategies, hardware_threads {p['hardware_threads']}, "
          f"kernel_dispatch {p['kernel_dispatch']}, "
          f"compiler_flags \"{p['compiler_flags']}\"")


def print_metric(workload, name, value, unit):
    print(f"{workload:18s} {name:30s} {value:14.6g} {unit}")


def timed_run(binary, spec, limits, workload, seed, seconds):
    """One timed run: returns (result dict, correct, printed extras)."""
    raw = run_measure(binary, workload, seed, seconds, trace=False)
    try:
        values, extra = metrics.end_to_end(raw, limits[workload])
    except ValueError as error:
        fail(f"{workload}: {error}", 1)
    timed = raw["timed"]
    if raw["kind"] == "http":
        ident = timed["identity"]
        correct = ident["mismatched"] == 0 and ident["checked"] > 0
        check = (f"identity: {ident['checked']} distinct bodies checked "
                 f"against the unsharded Service, {ident['mismatched']} "
                 f"diverged")
    else:
        replay = timed["replay"]
        correct = bool(replay["ok"])
        check = (f"replay: {replay['matched']}/{replay['recorded']} stream "
                 f"updates of the first journal segment byte-identical "
                 f"({replay['sessions']} sessions)")
    print_provenance(raw)
    print(f"# {check}; rss_reset {timed['rss_reset']}")
    for m in spec["end_to_end"]:
        value, unit = values[m["name"]]
        print_metric(workload, m["name"], value, unit)
    for name, value in extra.items():
        print_metric(workload, name, value, "")
    codes = timed["ops"]["code"]
    result = {
        "correct": correct,
        "attempted": len(codes),
        "failed": sum(1 for c in codes if c != metrics.OK),
        "metrics": {m["name"]: {"value": values[m["name"]][0],
                                "unit": m["unit"]}
                    for m in spec["end_to_end"]},
    }
    return result, correct, extra


def traced_run(binary, spec, workload, seed, seconds):
    raw = run_measure(binary, workload, seed, seconds, trace=True)
    values = metrics.per_layer(raw)
    records = os.path.join(build_dir(), "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{workload}-trace-seed{seed}.json")
    with open(path, "w") as f:
        json.dump(raw, f)
    print_provenance(raw)
    print(f"# spans written to {os.path.relpath(path, ROOT)}")
    for m in spec["per_layer"]:
        value, unit = values[m["name"]]
        print_metric(workload, m["name"], value, unit)
    rtt = values["net.rtt_ms"][0]
    codec = values["codec.encode_ms"][0] + values["codec.dump_ms"][0]
    print(f"# layer split: encode+dump = {100 * codec / rtt:.1f}% of rtt, "
          f"router.solve = {100 * values['router.solve_ms'][0] / rtt:.1f}% "
          f"of rtt")
    attempted = (raw["http"]["counters"]["ops"]
                 + raw["stream"]["counters"]["events"])
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {m["name"]: {"value": values[m["name"]][0],
                                "unit": m["unit"]}
                    for m in spec["per_layer"]},
    }


def steadiness(binary, spec, limits, workloads, repeats, seed, seconds):
    """Runs every workload `repeats` times, interleaved, and reports each
    end-to-end metric's spread against its bound. Returns False when a
    metric spreads wider than its bound."""
    # p99_ms is not in BENCHMARK.json; its spread is printed to show why.
    ungated = [{"name": "p99_ms", "bound": 0.25}]
    values = {w: {m["name"]: [] for m in spec["end_to_end"] + ungated}
              for w in workloads}
    for r in range(repeats):
        for w in workloads:
            log(f"steadiness: {w} seed {seed + r} ({r + 1}/{repeats})")
            result, correct, extra = timed_run(binary, spec, limits, w,
                                               seed + r, seconds)
            if not correct:
                fail(f"{w} seed {seed + r} produced incorrect output", 1)
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])
            values[w]["p99_ms"].append(extra["p99_ms"])
    steady = True
    print(f"\n# steadiness: {repeats} runs per workload, seeds {seed}.."
          f"{seed + repeats - 1}, {seconds} s each; spread = (q3 - q1) / "
          f"median; target spread < bound / 3")
    print(f"{'workload':18s} {'metric':16s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    noisy = []
    for w in workloads:
        for m in spec["end_to_end"] + ungated:
            vals = values[w][m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            s = metrics.spread(vals)
            if m in ungated:
                verdict = "(printed only)"
            elif s > m["bound"]:
                verdict = "EXCEEDS BOUND"
                noisy.append(f"{w}/{m['name']}")
                steady = False
            elif s > m["bound"] / 3:
                verdict = "above bound/3"
                noisy.append(f"{w}/{m['name']}")
            else:
                verdict = "ok"
            print(f"{w:18s} {m['name']:16s} {statistics.median(vals):12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {s:8.4f} {m['bound']:6.2f}  "
                  f"{verdict}")
    print("# noisy: " + (", ".join(noisy) if noisy else "none"))
    return steady


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    args = parser.parse_args()

    spec, limits = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    binary = build()

    if args.steadiness:
        ok = steadiness(binary, spec, limits, names, args.steadiness,
                        args.seed, seconds)
        sys.exit(0 if ok else 1)

    if args.workload:
        if args.workload not in names:
            fail(f"unknown workload {args.workload}; one of {names}")
        if args.trace:
            result = traced_run(binary, spec, args.workload, args.seed,
                                seconds)
        else:
            result, _, _ = timed_run(binary, spec, limits, args.workload,
                                     args.seed, seconds)
        print(json.dumps(result), flush=True)
        sys.exit(0 if result["correct"] else 1)

    correct = True
    for w in names:
        _, ok, _ = timed_run(binary, spec, limits, w, args.seed, seconds)
        correct = correct and ok
        traced_run(binary, spec, w, args.seed, seconds)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
