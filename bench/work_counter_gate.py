#!/usr/bin/env python3
"""Work-counter gate: the 10k campaign's deterministic work, exactly.

Runs `sfi campaign --n 10000 --threads 1 --metrics-out m.json --out o.sfr`
(seed 42, the default AVP-160 workload) in a temporary directory and compares
its work counters (admission and early exits, the late flips and the
pre-read cycles they skip, polls, checkpoint work, the recovery tails the
certificate retires, and post-fault cycles by exit kind) with
`work_counters_10k_campaign.change` in the newest BENCH_<pr>.json at the
repository root. Any difference exits 1: a change that moves the work on
purpose records the new values in its BENCH file. It also checks that the
counters account for every evaluated cycle: the post-fault cycles by exit
kind add up to the cycles evaluated minus the fast-forward cycles. Wall time
is printed, never gated (it is noise on a shared host; these counts are
not).

    python3 bench/work_counter_gate.py build/tools/sfi
"""
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# BENCH key -> the metrics.json counter that reports it.
METRICS = {
    "early_exits": "early_exits",
    "dead_on_arrival": "dead_on_arrival",
    "late_flips": "late_flips",
    "pre_read_cycles_skipped": "pre_read_cycles_skipped",
    "convergence_polls": "convergence_polls",
    "fast_forward_cycles_counter": "fast_forward_cycles",
    "warm_restores": "warm_restores",
    "ckpt_materializations": "ckpt_materializations",
    "tails_certified": "tails_certified",
    "tail_cycles_skipped": "tail_cycles_skipped",
}
# Post-fault cycles by exit kind (Corrected split at its last recovery).
POST_FAULT = ["post_fault_cycles." + row for row in (
    "vanished_early_exit", "vanished_test_end", "corrected_to_recovery_end",
    "corrected_after_recovery", "hang", "checkstop", "bad_arch_state")]
for key in POST_FAULT:
    METRICS[key] = key
# The other two come from the campaign's throughput line.
THROUGHPUT = re.compile(
    r"; (\d+) cycles evaluated .*; (\d+) checkpoint ops\)")


def newest_bench():
    numbered = {}
    for path in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
        m = re.search(r"BENCH_(\d+)\.json$", path)
        if m:
            numbered[int(m.group(1))] = path
    if not numbered:
        sys.exit("work-counter gate: no BENCH_<pr>.json at " + ROOT)
    return numbered[max(numbered)]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sfi = os.path.abspath(sys.argv[1])
    bench = newest_bench()
    want = json.load(open(bench))["work_counters_10k_campaign"]["change"]

    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.monotonic()
        # Progress lines go to stderr; show them only when the run fails.
        run = subprocess.run(
            [sfi, "campaign", "--n", "10000", "--threads", "1",
             "--metrics-out", "m.json", "--out", "o.sfr"],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        wall = time.monotonic() - t0
        if run.returncode != 0:
            sys.stderr.write(run.stderr)
            sys.exit("work-counter gate: the campaign exited %d"
                     % run.returncode)
        with open(os.path.join(tmp, "m.json")) as f:
            counters = json.load(f)["counters"]

    m = THROUGHPUT.search(run.stdout)
    if not m:
        sys.exit("work-counter gate: no throughput line in the output")
    got = {key: counters[name] for key, name in METRICS.items()}
    got["cycles_evaluated"] = int(m.group(1))
    got["checkpoint_ops"] = int(m.group(2))

    print("work counters vs %s (work_counters_10k_campaign.change)"
          % os.path.basename(bench))
    failed = False
    for key in sorted(got):
        expected = want.get(key)
        ok = expected == got[key]
        failed = failed or not ok
        print("  %-44s %12s %12s  %s" % (key, expected, got[key],
                                         "ok" if ok else "DIFFERS"))
    # Every evaluated cycle is a fast-forward cycle or a post-fault one.
    post_fault = sum(got[key] for key in POST_FAULT)
    simulated = got["cycles_evaluated"] - got["fast_forward_cycles_counter"]
    accounted = post_fault == simulated
    failed = failed or not accounted
    print("  %-44s %12s %12s  %s" % (
        "sum(post_fault_cycles.*) vs evaluated - ff", simulated, post_fault,
        "ok" if accounted else "DIFFERS"))
    print("wall time %.2f s (not gated)" % wall)
    if failed:
        print("work-counter gate FAILED: the campaign's work changed; a "
              "change that means to records the new values in its "
              "BENCH_<pr>.json and says why in CHANGES.md")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
