#!/usr/bin/env python3
"""Reports the src/ functions that no run of a --coverage build reached.

Build with coverage, run whatever should count as reaching code (the
tier-1 suite, fuzz runs), then point this script at the build tree:

  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov -j
  ctest --test-dir build-cov -j
  ./build-cov/tools/qof_fuzz --iterations 500 --seed 1
  python3 scripts/unreached_functions.py build-cov

It runs `gcov --json-format --hash-filenames` over every .gcno in the
build tree (objects that never ran count as unreached) and aggregates the
per-object reports: a function counts as reached when any object's copy
of it ran, so an inline function or a template in a src/ header counts
once for all translation units and instantiations that compiled it.

Exit status: 0 when every unreached function under src/ is a lambda or
on ALLOWLIST below, 1 otherwise (each offender printed as file:line
name), 2 on a usage or gcov error. Lambdas are exempt: they are the
bodies of failure reports and callbacks that fire only when a check
fails. An allowlist entry that is reached again is reported, not failed.
"""

import argparse
import gzip
import json
import os
import subprocess
import sys
import tempfile

# Unreached functions that stay, keyed by name (namespace `qof::`,
# anonymous namespaces and the parameter list dropped), each with the
# reason it stays.
ALLOWLIST = {
    "RegionCursor::io_stats":
        "the no-I/O default for in-memory cursors; the IR executor reads "
        "io_stats only from store cursors, which override it",
    "VectorRegionCursor::total_count":
        "required by the RegionCursor interface; only MaterializeCursor "
        "reads total_count, and it runs on store cursors",
}

LAMBDA = "{lambda("

SRC_ROOT = os.path.realpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))


def short_name(demangled):
    """'qof::(anonymous namespace)::F(int) const' -> 'F'."""
    name = demangled.replace("(anonymous namespace)::", "")
    if name.startswith("qof::"):
        name = name[len("qof::"):]
    depth = 0
    for i, ch in enumerate(name):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return name[:i]
    return name


def run_gcov(build_dir, out_dir):
    gcnos = []
    for root, _, files in os.walk(build_dir):
        gcnos.extend(os.path.join(root, f) for f in files
                     if f.endswith(".gcno"))
    if not gcnos:
        sys.exit(f"no .gcno files under {build_dir}: not a --coverage build")
    for i in range(0, len(gcnos), 64):
        proc = subprocess.run(
            ["gcov", "--json-format", "--hash-filenames"] + gcnos[i:i + 64],
            cwd=out_dir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(2)
    return len(gcnos)


def aggregate(out_dir):
    """{(file, line, column): [names, reached]}, {(file, line): hit}."""
    functions = {}
    lines = {}
    for name in os.listdir(out_dir):
        if not name.endswith(".gcov.json.gz"):
            continue
        with gzip.open(os.path.join(out_dir, name), "rt") as f:
            report = json.load(f)
        cwd = report.get("current_working_directory", "")
        for entry in report["files"]:
            path = os.path.realpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(SRC_ROOT + os.sep):
                continue
            rel = os.path.relpath(path, os.path.dirname(SRC_ROOT))
            for fn in entry["functions"]:
                key = (rel, fn["start_line"], fn["start_column"])
                slot = functions.setdefault(key, [set(), False])
                slot[0].add(fn["demangled_name"])
                slot[1] = slot[1] or fn["execution_count"] > 0
            for ln in entry["lines"]:
                key = (rel, ln["line_number"])
                lines[key] = lines.get(key, False) or ln["count"] > 0
    return functions, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", help="a --coverage build tree that ran")
    args = parser.parse_args()
    build_dir = os.path.realpath(args.build_dir)

    with tempfile.TemporaryDirectory() as out_dir:
        objects = run_gcov(build_dir, out_dir)
        functions, lines = aggregate(out_dir)

    reached = sum(1 for _, hit in functions.values() if hit)
    print(f"{objects} objects; src/ functions reached: {reached} of "
          f"{len(functions)}; lines reached: "
          f"{sum(lines.values())} of {len(lines)}")

    offenders = []
    allowed = set()
    for (path, line, _), (names, hit) in sorted(functions.items()):
        if hit:
            continue
        name = min(names)
        short = short_name(name)
        if LAMBDA in name:
            print(f"  lambda    {path}:{line}")
        elif short in ALLOWLIST:
            allowed.add(short)
            print(f"  allowed   {path}:{line} {short}: {ALLOWLIST[short]}")
        else:
            offenders.append(f"{path}:{line} {name}")
    for short in sorted(set(ALLOWLIST) - allowed):
        print(f"note: allowlisted {short} is reached (or gone); "
              "drop its entry")
    if offenders:
        print("unreached src/ functions (delete them, test them, or "
              "allowlist them with a reason):")
        for line in offenders:
            print(f"  {line}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
