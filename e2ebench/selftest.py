#!/usr/bin/env python3
"""Determinism self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py [--seconds 2] [--workload NAME ...]

Run from the repository root. For each workload it runs the benchmark
twice with one seed and once with another, untraced and traced, and
checks that:
  * the same seed gives the same op-sequence digest, the same per-class
    sample counts and identical count metrics (store.pages_read,
    engine.candidates, engine.bytes_scanned, algebra.regions_produced,
    space_ratio, ok_frac);
  * another seed changes the digest (the literals) but keeps the
    per-class counts (the class shares);
  * every run is correct.
Exits 0 when all checks pass.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bibtex-serve", "grammar-disk", "bibtex-twophase")
COUNTS_TRACED = ("store.pages_read", "engine.candidates",
                 "engine.bytes_scanned", "algebra.regions_produced")
COUNTS_UNTRACED = ("space_ratio", "ok_frac")


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout.splitlines()
    info = json.loads(next(l for l in out if l.startswith("info "))[5:])
    return info, json.loads(out[-1])


def class_sizes(info):
    return {k: v["n"] for k, v in info.get("classes", {}).items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in args.workload or WORKLOADS:
        a_info, a = run(w, 11, args.seconds, 0)
        b_info, b = run(w, 11, args.seconds, 0)
        c_info, c = run(w, 12, args.seconds, 0)
        ta_info, ta = run(w, 11, args.seconds, 1)
        tb_info, tb = run(w, 11, args.seconds, 1)
        for name, result in (("a", a), ("b", b), ("c", c), ("ta", ta),
                             ("tb", tb)):
            expect(result["correct"], f"{w}: run {name} correct")
        expect(a_info["digest"] == b_info["digest"] == ta_info["digest"],
               f"{w}: same seed, same op digest")
        expect(class_sizes(a_info) == class_sizes(b_info),
               f"{w}: same seed, same class sizes")
        expect(a_info["digest"] != c_info["digest"],
               f"{w}: another seed, other literals")
        expect(class_sizes(a_info) == class_sizes(c_info),
               f"{w}: another seed, same class sizes")
        for m in COUNTS_UNTRACED:
            expect(a["metrics"][m]["value"] == b["metrics"][m]["value"],
                   f"{w}: {m} repeats ({a['metrics'][m]['value']})")
        for m in COUNTS_TRACED:
            expect(ta["metrics"][m]["value"] == tb["metrics"][m]["value"],
                   f"{w}: {m} repeats ({ta['metrics'][m]['value']})")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
