#!/usr/bin/env python3
"""The osprof benchmark: end-to-end and per-layer host cost of the tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (single-threaded, one workload process at a time):

  gate_corpus  every scenario with a committed golden, each gated by a fresh
               `osprof_tool gate <scenario>` process as CI's gate loop runs
               them; one pass is the whole corpus, in a seed-shuffled order.
  scale_1m     the registered 1,050,000-request open-loop scenario through
               osrunner::RunScenario with one trial.
  cluster_rw   cluster_write_shared and cluster_read_mostly through
               RunScenario, 32 trials each.

The seed orders gate_corpus's scenarios; scale_1m and cluster_rw run their
registered scenarios unchanged, so each has one recorded digest.
BENCHMARK.json registers gate_corpus and scale_1m.  cluster_rw runs the
same way by hand: its pass time swings most with the host's memory
contention, so across runs its spread can exceed the bound a registered
workload may have.

With --trace 0 the run prints the end-to-end metrics: setup_s (median over
fresh zero-work processes), wall_s, sim_ops_per_s and peak_rss_mib (medians
over the timed passes that follow one warm-up pass).  Every pass is checked;
failed_share is printed by name and carried as `failed` / `attempted` in the
result line.  With --trace 1 a separate traced run prints the per-layer
metrics (see perfbench/driver.cc, mode `layers`), each with its unit and
the end-to-end metrics it should move; perfbench/metrics.json gives every
metric's reason.  The last stdout line is the JSON result; everything before
it is the human-readable report and the noise diagnostics.

The benchmark builds its own Release copy of the sources under
$CARGO_TARGET_DIR (default .bench_build) with perfbench/CMakeLists.txt.
`--record-digests` re-records perfbench/digests.json, the simulated-output
digests every pass is checked against; only a change that means to alter
what is simulated should do that.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT,
                          os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
DIGESTS = os.path.join(HERE, "digests.json")
METRICS = os.path.join(HERE, "metrics.json")

WORKLOADS = ("gate_corpus", "scale_1m", "cluster_rw")
CORPUS = (
    "cluster_read_mostly", "cluster_write_shared", "fig01", "fig03", "fig06",
    "fig07", "fig07_cifs", "noise", "postmark", "race_control_locked",
    "race_fixture_counter", "race_fixture_readers",
)
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170

# Every metric's unit and one-line reason; a per-layer metric also names
# the end-to-end metrics it should move.
with open(METRICS) as _f:
    METRIC_INFO = json.load(_f)
END_TO_END = {name: info["unit"]
              for name, info in METRIC_INFO["end_to_end"].items()}
PER_LAYER = {name: info["unit"]
             for name, info in METRIC_INFO["per_layer"].items()}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def tool(name):
    if name == "osprof_tool":
        return os.path.join(BUILD_DIR, "osprof", "tools", "osprof_tool")
    return os.path.join(BUILD_DIR, name)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no osprof sources next to perfbench/")
    os.makedirs(TMP_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))


def spawn(argv):
    """Runs argv from the checkout root; returns (seconds, exit, rss MiB, out).

    The child is reaped with wait4 for its peak RSS.  Linux counts the
    launcher's image in it too, so it reads at least this Python process's
    RSS; the gate corpus's largest child (fig07_cifs) is far above that.
    A watchdog kills the child after CHILD_TIMEOUT_S.
    """
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                             stdin=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
        child.stdout.close()
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return seconds, child.returncode, usage.ru_maxrss / 1024.0, out.decode()


def json_docs(text):
    """The JSON documents a driver process printed, in order."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_loop_ns():
    _, status, _, out = spawn([tool("perfbench_run"), "hostloop"])
    if status != 0:
        raise BenchError("hostloop failed")
    return json_docs(out)[-1]["host_loop_ns"]


class Tally:
    """Checks attempted and failed over a run, with the failures' text."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.add(1, [] if ok else [what])

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failures.extend(failures)


# --- gate_corpus -----------------------------------------------------------

def gate_once(scenario, tally, baseline=None):
    """One fresh `osprof_tool gate` process; returns (seconds, rss, ops)."""
    verdict_path = os.path.join(TMP_DIR, "gate_%s.json" % scenario)
    if os.path.exists(verdict_path):
        os.remove(verdict_path)
    argv = [tool("osprof_tool"), "gate", scenario, "--json=" + verdict_path]
    if baseline:
        argv.append("--baseline=" + baseline)
    seconds, status, rss, _ = spawn(argv)
    tally.check(status == 0, "%s: gate exit %d" % (scenario, status))
    ops = 0
    try:
        with open(verdict_path) as f:
            verdict = json.load(f)
    except (OSError, ValueError):
        tally.check(False, "%s: no verdict JSON" % scenario)
        return seconds, rss, ops
    exact = verdict["layered"]["pass"]
    for layer in verdict["layers"]:
        ops += layer["measured_ops"]
        exact = exact and all(r["max_score"] == 0 for r in layer["raters"])
    tally.check(exact, "%s: profiles are not at distance 0 from the goldens"
                % scenario)
    races = verdict["races"]
    tally.check(races["checked"]
                and races["found"] == scenario.startswith("race_fixture_"),
                "%s: race verdict is not the expected one" % scenario)
    return seconds, rss, ops


def gate_pass(order, tally, baseline_dir=None):
    """One corpus pass; returns (seconds, largest child RSS, ops)."""
    seconds = rss = ops = 0
    for scenario in order:
        baseline = baseline_dir and os.path.join(baseline_dir, scenario)
        s, r, o = gate_once(scenario, tally, baseline)
        seconds += s
        rss = max(rss, r)
        ops += o
    return seconds, rss, ops


def setup_probe(workload, tally):
    """One fresh zero-work process; returns its seconds."""
    if workload == "gate_corpus":
        seconds, status, _, _ = spawn(
            [tool("osprof_tool"), "gate", "race_control_locked"])
        tally.check(status == 0, "setup probe: gate exit %d" % status)
        return seconds
    seconds, status, _, out = spawn(
        [tool("perfbench_run"), "probe", "--workload", workload])
    docs = json_docs(out) if status == 0 else []
    tally.check(bool(docs) and docs[-1]["requests"] == 0,
                "setup probe retired simulated requests or failed")
    return seconds


def corpus_order(seed):
    order = list(CORPUS)
    random.Random(seed).shuffle(order)
    return order


def measure_gate_corpus(seed, seconds, tally):
    order = corpus_order(seed)
    samples = {"setup_s": [], "wall_s": [], "sim_ops_per_s": [],
               "peak_rss_mib": []}
    gate_pass(order, Tally())  # Warm-up: page cache, binaries, goldens.
    setup_probe("gate_corpus", Tally())
    start = time.perf_counter()
    last = 0.0
    while not samples["wall_s"] or (
            time.perf_counter() - start + last <= seconds):
        t = time.perf_counter()
        wall, rss, ops = gate_pass(order, tally)
        samples["wall_s"].append(wall)
        samples["sim_ops_per_s"].append(ops / wall)
        samples["peak_rss_mib"].append(rss)
        if len(samples["setup_s"]) < SETUP_PROBES:
            samples["setup_s"].append(setup_probe("gate_corpus", tally))
        last = time.perf_counter() - t
    while len(samples["setup_s"]) < SETUP_PROBES:
        samples["setup_s"].append(setup_probe("gate_corpus", tally))
    return samples


# --- scale_1m and cluster_rw -----------------------------------------------

def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def run_passes(workload, tally, seconds=0.0, passes=0, no_races=False,
               digests=None):
    """One perfbench_run process of timed passes.

    Returns the timed pass records.
    """
    argv = [tool("perfbench_run"), "pass", "--workload", workload]
    argv += ["--passes", str(passes)] if passes else ["--seconds", str(seconds)]
    if no_races:
        argv.append("--no-races")
    _, status, _, out = spawn(argv)
    records = json_docs(out)
    if status != 0 or not records or not records[-1].get("done"):
        raise BenchError("%s passes failed (exit %d)" % (workload, status))
    expected = (digests or load_digests())[workload]
    timed = []
    for rec in records[:-1]:
        if rec["warmup"]:
            continue
        timed.append(rec)
        tally.add(rec["checks"], rec["failures"])
        tally.check(rec["digest"] == expected,
                    "%s pass %d: simulated-output digest %s != recorded %s"
                    % (workload, rec["pass"], rec["digest"], expected))
    return timed


def measure_in_process(workload, seconds, tally):
    samples = {"setup_s": []}
    setup_probe(workload, Tally())  # Warm-up: page cache and binaries.
    half = SETUP_PROBES // 2
    for _ in range(SETUP_PROBES - half):
        samples["setup_s"].append(setup_probe(workload, tally))
    timed = run_passes(workload, tally, seconds=seconds)
    for _ in range(half):
        samples["setup_s"].append(setup_probe(workload, tally))
    samples["wall_s"] = [rec["wall_s"] for rec in timed]
    samples["sim_ops_per_s"] = [rec["ops"] / rec["wall_s"] for rec in timed]
    # The process's peak after its warm-up and first timed pass: later
    # passes reuse that memory, and a count that grows with the number of
    # passes would tie the metric to host speed.
    samples["peak_rss_mib"] = [timed[0]["peak_rss_mib"]]
    return samples


# --- traced run --------------------------------------------------------------

def race_rss_mib(workload):
    """Peak RSS of fresh processes with SimRace on minus off."""
    if workload == "gate_corpus":
        on = off = 0.0
        for scenario in CORPUS:
            off_path = os.path.join(TMP_DIR, "gate_norace.json")
            on = max(on, gate_once(scenario, Tally())[1])
            off = max(off, spawn([tool("osprof_tool"), "gate", scenario,
                                  "--no-races", "--json=" + off_path])[2])
        return on - off
    if workload == "scale_1m":
        return 0.0  # The registered scenario runs with SimRace off.
    on = run_passes(workload, Tally(), passes=1)[0]["peak_rss_mib"]
    off = run_passes(workload, Tally(), passes=1,
                     no_races=True)[0]["peak_rss_mib"]
    return on - off


def measure_layers(workload, seed, seconds, tally):
    tables = []
    for _ in range(SETUP_PROBES):
        _, status, _, out = spawn([tool("perfbench_trace"), "tables"])
        tally.check(status == 0, "tables probe failed")
        tables.append(json_docs(out)[-1]["bucket_tables_s"])
    spans_path = os.path.join(TMP_DIR, "%s.spans.json" % workload)
    argv = [tool("perfbench_trace"), "layers", "--workload", workload,
            "--seconds", str(seconds), "--spans", spans_path]
    # Workloads that gate nothing report 0 for every gate span.
    metrics = {name: 0.0 for name in PER_LAYER
               if name.startswith("tools.gate_s.")}
    if workload == "gate_corpus":
        argv += ["--scenarios", ",".join(corpus_order(seed))]
    _, status, _, out = spawn(argv)
    docs = json_docs(out)
    if status != 0 or not docs:
        raise BenchError("traced run failed (exit %d)" % status)
    traced = docs[-1]
    metrics.update(traced["metrics"])
    metrics["core.bucket_tables_s"] = statistics.median(tables)
    metrics["sim.race_rss_mib"] = race_rss_mib(workload)
    tally.add(traced["checks"], traced["failures"])
    tally.add(0, ["drift: " + d for d in traced["drift"]])
    refused = [f for f in traced["failures"] if "simulated outputs" in f]
    untraced, traced_walls = traced["untraced_wall_s"], traced["traced_wall_s"]
    print("workload %s seed %d: traced run of %d rounds; spans in %s"
          % (workload, seed, len(traced_walls),
             os.path.relpath(spans_path, ROOT)))
    # Quartiles of every host time over its inner samples (passes, rounds
    # or repetitions); times that are 0 on this workload are left out.
    samples = dict(traced["samples"])
    samples.update({"untraced pass": untraced, "traced pass": traced_walls,
                    "core.bucket_tables_s": tables})
    for name, values in sorted(samples.items()):
        if any(values):
            print("  %-36s quartiles %.6g / %.6g / %.6g %s over %d"
                  % ((name,) + quartiles(values)
                     + (PER_LAYER.get(name, "s"), len(values))))
    print("  tracing overhead (traced minus untraced pass) %.6g s"
          % metrics["bench.trace_overhead_s"])
    for d in traced["drift"]:
        print("  DRIFT (a count changed between traced runs): " + d)
    if refused:
        for r in refused:
            print("  REFUSED: " + r)
        raise BenchError("per-layer numbers refused: a traced or toggled run "
                         "simulated something else than the untraced run")
    if set(metrics) != set(PER_LAYER):
        raise BenchError("per-layer metrics differ from the declared list: %s"
                         % sorted(set(metrics) ^ set(PER_LAYER)))
    for name, value in sorted(metrics.items()):
        moves = METRIC_INFO["per_layer"][name]["moves"]
        print("  %-44s %-14.6g %-9s moves %s"
              % (name, value, PER_LAYER[name], ", ".join(moves) or "none"))
    return metrics


# --- main --------------------------------------------------------------------

def record_digests():
    digests = {}
    for workload in ("scale_1m", "cluster_rw"):
        argv = [tool("perfbench_run"), "pass", "--workload", workload,
                "--passes", "1"]
        _, status, _, out = spawn(argv)
        timed = [rec for rec in json_docs(out) if rec.get("warmup") is False]
        if status != 0 or not timed:
            raise BenchError("digest run failed")
        digests[workload] = timed[0]["digest"]
        log("%s: %s" % (workload, digests[workload]))
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2)
        f.write("\n")


def report(workload, seed, samples):
    print("workload %s seed %d: %d timed passes, %d setup probes"
          % (workload, seed, len(samples["wall_s"]), len(samples["setup_s"])))
    metrics = {}
    for name, unit in END_TO_END.items():
        values = samples[name]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print("  %-14s %-14.6g %-6s quartiles %.6g / %.6g / %.6g over %d"
              % (name, med, unit, q1, med, q3, len(values)))
    return metrics


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        build()
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        tally = Tally()
        loop_start = host_loop_ns()
        if args.trace:
            metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                       for name, value in sorted(measure_layers(
                           args.workload, args.seed, args.seconds,
                           tally).items())}
        else:
            if args.workload == "gate_corpus":
                samples = measure_gate_corpus(args.seed, args.seconds, tally)
            else:
                samples = measure_in_process(args.workload, args.seconds,
                                             tally)
            metrics = report(args.workload, args.seed, samples)
        share = len(tally.failures) / tally.attempted
        print("  %-14s %-14.6g %-6s (%d failed of %d checks)"
              % ("failed_share", share, "ratio", len(tally.failures),
                 tally.attempted))
        print("  host speed: fixed loop %.4g ns/step at start, %.4g at end"
              % (loop_start, host_loop_ns()))
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    for failure in tally.failures:
        print("  FAILED: " + failure)
    print(json.dumps({"correct": not tally.failures,
                      "attempted": tally.attempted,
                      "failed": len(tally.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
