#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks.

Run from the root of a checkout (builds the benchmark first if needed):

    python3 perfbench/selftest.py

Each test shows that a check the benchmark counts in failed_share really
fires: a corrupted golden or a wrong digest must fail a pass, while a change
to a host-only counter such as sim_heap_bytes must leave the digest as it
is; every metric name must be well formed, declared in BENCHMARK.json and
given a reason in perfbench/metrics.json; and the zero-work probe behind
setup_s must retire no simulated requests.
"""

import json
import os
import re
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

GOLDEN_DIR = os.path.join(run.ROOT, "tests", "golden")
# The counters driver.cc's kHostCounters keeps out of the digest.
HOST_COUNTERS = {"race_accesses_checked", "race_cells_tracked",
                 "shard_flushes", "sim_heap_bytes"}


def test_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = list(declared_e2e) + list(declared_layer)
    pattern = re.compile(r"[A-Za-z0-9_.-]+\Z")
    bad = [n for n in names if not pattern.match(n)]
    assert not bad, "malformed metric names: %s" % bad
    assert len(names) == len(set(names)), "a metric name is used twice"
    assert declared_e2e == run.END_TO_END, "end_to_end differs from metrics"
    assert declared_layer == run.PER_LAYER, "per_layer differs from metrics"
    registered = [w["name"] for w in bench["workloads"]]
    assert set(registered) <= set(run.WORKLOADS), registered


def test_every_metric_has_a_reason_and_a_tie():
    info = run.METRIC_INFO
    for section in ("end_to_end", "per_layer"):
        for name, entry in info[section].items():
            why = entry["why"]
            assert why and "\n" not in why and len(why) <= 200, name
    for name, entry in info["per_layer"].items():
        unknown = set(entry["moves"]) - set(run.END_TO_END)
        assert not unknown, "%s moves unknown metrics %s" % (name, unknown)


def corrupted_copy(scenario):
    """Copies a scenario's goldens and moves one op to the next bucket."""
    target = os.path.join(run.TMP_DIR, "selftest_golden")
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    for name in os.listdir(GOLDEN_DIR):
        if name.startswith(scenario + "."):
            shutil.copy(os.path.join(GOLDEN_DIR, name), target)
    path = os.path.join(target, scenario + ".fs.prof")
    with open(path) as f:
        lines = f.read().splitlines()
    # Two adjacent buckets of one op: one count moves up a bucket, so the
    # op total stays the same and only the shape drifts.
    for i in range(len(lines) - 1):
        a, b = lines[i].split(), lines[i + 1].split()
        if (a[:1] == ["bucket"] and b[:1] == ["bucket"] and int(a[2]) > 1
                and int(b[1]) == int(a[1]) + 1):
            lines[i] = "  bucket %s %d" % (a[1], int(a[2]) - 1)
            lines[i + 1] = "  bucket %s %d" % (b[1], int(b[2]) + 1)
            break
    else:
        raise AssertionError("no adjacent buckets to corrupt in " + path)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return target


def test_corrupted_golden_fails_the_pass():
    clean = run.Tally()
    run.gate_pass(["fig06"], clean)
    assert clean.attempted > 0 and not clean.failures, clean.failures
    corrupted = run.Tally()
    run.gate_pass(["fig06"], corrupted, baseline_dir=corrupted_copy("fig06"))
    assert corrupted.failures, "a corrupted golden passed every check"


def test_wrong_digest_fails_the_pass():
    digests = run.load_digests()
    clean = run.Tally()
    run.run_passes("cluster_rw", clean, passes=1, digests=digests)
    assert clean.attempted > 0 and not clean.failures, clean.failures
    wrong = dict(digests, cluster_rw="0" * 16)
    tally = run.Tally()
    run.run_passes("cluster_rw", tally, passes=1, digests=wrong)
    assert tally.failures, "a wrong digest passed every check"


def test_host_counters_leave_the_digest_unchanged():
    """Bumping sim_heap_bytes (or another host counter) alone keeps the
    digest; bumping any simulated counter changes it."""
    seen = set()
    for workload in ("scale_1m", "cluster_rw"):
        _, status, _, out = run.spawn([run.tool("perfbench_run"),
                                       "digest-check", "--workload", workload])
        assert status == 0, "%s digest-check exit %d" % (workload, status)
        check = run.json_docs(out)[-1]
        ignored, counted = ({name.split("/")[-1] for name in check[key]}
                            for key in ("ignored", "counted"))
        assert ignored <= HOST_COUNTERS, "%s: digest ignores %s" % (
            workload, sorted(ignored - HOST_COUNTERS))
        assert not counted & HOST_COUNTERS, "%s: digest counts %s" % (
            workload, sorted(counted & HOST_COUNTERS))
        assert counted, "%s: the digest counts no counter" % workload
        seen |= ignored
    assert seen == HOST_COUNTERS, "host counters never seen: %s" % sorted(
        HOST_COUNTERS - seen)


def test_zero_work_probe_retires_no_requests():
    for workload in ("scale_1m", "cluster_rw"):
        _, status, _, out = run.spawn(
            [run.tool("perfbench_run"), "probe", "--workload", workload])
        assert status == 0, "%s probe exit %d" % (workload, status)
        probe = run.json_docs(out)[-1]
        assert probe["requests"] == 0, "%s probe: %s" % (workload, probe)
    for workload in run.WORKLOADS:
        tally = run.Tally()
        run.setup_probe(workload, tally)
        assert tally.attempted == 1 and not tally.failures, tally.failures


def main():
    run.build()
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print("PASS " + name)
        except AssertionError as e:
            failed += 1
            print("FAIL %s: %s" % (name, e))
    print("%d of %d self-tests passed" % (len(tests) - failed, len(tests)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
