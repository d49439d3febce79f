#!/usr/bin/env python3
"""coverage_report: which src/ functions and lines the test suite never runs.

Reads the gcov data of a build made with the `coverage` preset after its tests ran:

    cmake --preset coverage && cmake --build --preset coverage -j
    find build-coverage -name '*.gcda' -delete   # start from zero counts
    ctest --preset coverage
    python3 scripts/coverage_report.py --build build-coverage --min-functions 100 --min-lines 97

It runs `gcov --json-format` on every .gcno under the build (a unit whose program never
ran counts, with zeros), keeps the files under src/, and merges the counts per source line
and per function across translation units (an inline header function shows up in every
unit that uses it; a template in every instantiation). A line holding only braces is not
counted, as lcov's brace filter does: gcov charges exception cleanup to it, which no test
can run. A lambda is its own function, named under the function that encloses it
(`odf::replay::WriteLogFile::{lambda#1}`), so a never-run error lambda is not hidden by
its enclosing function having run.

ALLOW below lists what no deterministic test can reach; each entry carries one of the
REASONS. An entry names a whole function (`func`, the name as this script prints it) or
a run of `count` lines starting at the single line that matches the regex `at`. An entry
that no longer matches exactly one function or line is an error, so the list cannot
drift onto other code. Two statement rules need no entry: the lines of an ODF_CHECK,
ODF_DCHECK or ODF_VM_BUG_ON statement that run only when the check fails (the message
lines after the first, and all of an `ODF_CHECK(false)`) carry the CHECK reason, and a
statement that files a report string (`violation(...)`, `state.Violation(...)`,
`state.Diverge(...)`, `result.violations.push_back(...)`,
`report.divergences.push_back(...)`) carries the REPORT reason. Allow-listed functions
and lines leave both the numerator and the denominator.

The report prints the never-run functions and line ranges outside the allow-list and
exits 1 when function or line coverage falls below its floor (--min-functions,
--min-lines, in percent), 2 on a stale allow-list entry or a missing build.
"""

import argparse
import collections
import json
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The only reasons an entry may give.
CHECK = "ODF_CHECK / VM_BUG_ON failure path"
DEATH = "runs only in a death-test child, which aborts before gcov flushes its counts"
REPORT = "verifier, auditor or replay-mismatch report string"
RACE = "lost-race branch; needs the parallel torture of ROADMAP item 4"
BENCH = "bench- or example-only output"
REASONS = (CHECK, DEATH, REPORT, RACE, BENCH)

# `matches` is how many lines `at` must match; each match starts a run of `count` lines.
Allow = collections.namedtuple("Allow", "path reason func at count matches",
                               defaults=(None, None, 1, 1))

ALLOW = [
    # The fatal half of ODF_CHECK: it prints and aborts.
    Allow("src/util/log.cc", CHECK, func="odf::FatalCheckFailure"),
    Allow("src/util/log.h", CHECK, at=r"void operator&\(const CheckFailer&\)"),
    Allow("src/util/log.h", CHECK, at=r"  CheckFailer\(const char\* file", count=2),
    Allow("src/util/log.h", CHECK, at=r"\[\[noreturn\]\] ~CheckFailer\(\)"),
    Allow("src/util/log.h", CHECK, at=r"CheckFailer& operator<<\(const T& value\)", count=3),
    # Installed as the abort hook; runs inside FatalCheckFailure.
    Allow("src/replay/recorder.cc", DEATH, func="odf::replay::Recorder::AbortDumpHook"),
    # What PageLru::ForEachTracked says about a corrupted list.
    Allow("src/reclaim/lru.cc", REPORT, at=r'return "LRU list is longer than its size', count=2),
    Allow("src/reclaim/lru.cc", REPORT, at=r'return "LRU back link of frame'),
    Allow("src/reclaim/lru.cc", REPORT, at=r'return "LRU list size "', count=2),
    # The verifier skips the rest of a frame or mapping it has just reported.
    Allow("src/debug/verify.cc", REPORT, at=r'"compound tail with invalid head"', count=2),
    Allow("src/debug/verify.cc", REPORT, at=r'violation\(where \+ " is free"\)', count=2),
    Allow("src/debug/verify.cc", REPORT, at=r'violation\(where \+ " is not an anonymous', count=2),
    Allow("src/debug/verify.cc", REPORT, at=r'" is not a member of a live anon family"\);', count=2),
    # A huge COW or split whose allocation let another thread rewrite the PMD entry.
    Allow("src/mm/fault.cc", RACE, at=r"if \(LoadEntry\(pmd_slot\).raw\(\) != entry.raw\(\)\)",
          count=5, matches=2),
    # The loser of an upper-level table install frees its speculative table.
    Allow("src/pt/walker.cc", RACE, at=r"allocator_->DecRef\(child\);", matches=2),
    # DedicatePmdTable / DedicatePteTable found the slot already dedicated by another
    # thread, and DedicatePmdTable's drop became the last because the other sharers exited.
    Allow("src/mm/range_ops.cc", RACE,
          at=r"if \(!current.IsPresent\(\) \|\| current.IsHuge\(\) \|\| current.frame\(\) != shared\)",
          count=3, matches=2),
    Allow("src/mm/range_ops.cc", RACE,
          at=r"if \(DropPmdTableReference\(allocator, as.swap_space\(\), shared\)\)", count=2),
]


BRACES_ONLY = re.compile(r"^[\s{};]*$")
_SOURCES = {}


def source_lines(path):
    if path not in _SOURCES:
        with open(os.path.join(REPO, path)) as src:
            _SOURCES[path] = src.read().splitlines()
    return _SOURCES[path]


CHECK_STATEMENT = re.compile(r"^\s*(ODF_CHECK|ODF_DCHECK|ODF_VM_BUG_ON|ODF_VM_BUG_ON_PAGE)\(")
REPORT_STATEMENT = re.compile(r"^\s*(violation|state\.Violation|state\.Diverge|"
                              r"result\.violations\.push_back|report\.divergences\.push_back)\(")


def rule_lines(text):
    """1-based lines of `text` the two statement rules cover: those that run only when an
    ODF_CHECK-family statement fails, and every line of a statement that files a
    verifier, auditor or replay-mismatch report string."""
    out = set()
    i = 0
    while i < len(text):
        check = CHECK_STATEMENT.match(text[i])
        if not check and not REPORT_STATEMENT.match(text[i]):
            i += 1
            continue
        end = i
        while not text[end].rstrip().endswith(";") and end + 1 < len(text):
            end += 1
        first = i + 1 if check and not re.match(r"^\s*\w+\(false\)", text[i]) else i
        out.update(range(first + 1, end + 2))
        i = end + 1
    return out


def short_name(demangled):
    """`ns::F(args)::{lambda(x)#1}::operator()(x) const` -> `ns::F::{lambda#1}`."""
    name = demangled.replace("(anonymous namespace)", "{anon}")
    name = name.replace("operator()", "operator\0")
    while True:
        stripped = re.sub(r"\([^()]*\)", "", name)
        if stripped == name:
            break
        name = stripped
    name = name.replace("operator\0", "operator()")
    name = re.sub(r"(\{lambda#\d+\})::operator\(\)(\s+const)?", r"\1", name)
    return re.sub(r"\s+const$", "", name)


def gcov_json(gcno_files):
    """Yields the parsed gcov JSON document of each .gcno, in batches of one gcov call.
    A unit whose program never ran has no .gcda; gcov then reports all its counts as 0."""
    batch = 64
    for i in range(0, len(gcno_files), batch):
        out = subprocess.run(["gcov", "--json-format", "--stdout", *gcno_files[i:i + batch]],
                             check=True, capture_output=True, text=True, cwd=REPO).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def collect(build):
    """Merged {path: {line: count}} and {(path, start, col): [name, start, end, count]}."""
    gcno = sorted(os.path.join(root, f) for root, _, files in os.walk(build)
                  for f in files if f.endswith(".gcno"))
    lines = collections.defaultdict(lambda: collections.defaultdict(int))
    funcs = {}
    for doc in gcov_json(gcno):
        cwd = doc.get("current_working_directory", REPO)
        for entry in doc["files"]:
            path = os.path.relpath(os.path.normpath(os.path.join(cwd, entry["file"])), REPO)
            if not path.startswith("src" + os.sep):
                continue
            text = source_lines(path)
            for ln in entry["lines"]:
                n = ln["line_number"]
                if n <= len(text) and BRACES_ONLY.match(text[n - 1]):
                    continue
                lines[path][n] += ln["count"]
            for fn in entry["functions"]:
                key = (path, fn["start_line"], fn["start_column"])
                rec = funcs.setdefault(key, [short_name(fn["demangled_name"]), fn["start_line"],
                                             fn["end_line"], 0])
                rec[3] += fn["execution_count"]
    return len(gcno), lines, funcs


def apply_allow_list(lines, funcs):
    """Returns (allowed line set, allowed function keys, errors)."""
    allowed_lines, allowed_funcs, errors = set(), set(), []
    for path in lines:
        allowed_lines.update((path, n) for n in rule_lines(source_lines(path)))
    for entry in ALLOW:
        where = f"{entry.path}: {entry.func or entry.at!r}"
        if entry.reason not in REASONS:
            errors.append(f"{where}: reason is not one of REASONS")
            continue
        if entry.func:
            keys = [k for k, rec in funcs.items() if k[0] == entry.path and rec[0] == entry.func]
            if len(keys) != 1:
                errors.append(f"{where}: matches {len(keys)} functions, not 1")
                continue
            allowed_funcs.add(keys[0])
            _, start, end, _ = funcs[keys[0]]
            allowed_lines.update((entry.path, n) for n in range(start, end + 1))
            continue
        try:
            text = source_lines(entry.path)
        except OSError as exc:
            errors.append(f"{where}: {exc}")
            continue
        hits = [n for n, t in enumerate(text, 1) if re.search(entry.at, t)]
        if len(hits) != entry.matches:
            errors.append(f"{where}: matches {len(hits)} lines, not {entry.matches}")
            continue
        for hit in hits:
            allowed_lines.update((entry.path, n) for n in range(hit, hit + entry.count))
    # A function whose every executable line is allow-listed (say, a lost-race lambda)
    # leaves the function count as well.
    for key, (_, start, end, _) in funcs.items():
        body = [n for n in lines[key[0]] if start <= n <= end]
        if body and all((key[0], n) in allowed_lines for n in body):
            allowed_funcs.add(key)
    return allowed_lines, allowed_funcs, errors


def ranges(numbers):
    out, numbers = [], sorted(numbers)
    for n in numbers:
        if out and n == out[-1][1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build", default=os.path.join(REPO, "build-coverage"))
    parser.add_argument("--min-functions", type=float, default=0.0)
    parser.add_argument("--min-lines", type=float, default=0.0)
    args = parser.parse_args()

    n_units, lines, funcs = collect(args.build)
    if not n_units:
        print(f"coverage_report: no .gcno under {args.build}; build the coverage preset "
              "and run its tests first", file=sys.stderr)
        return 2
    allowed_lines, allowed_funcs, errors = apply_allow_list(lines, funcs)
    for err in errors:
        print(f"coverage_report: stale allow-list entry: {err}", file=sys.stderr)

    all_lines = sum(len(v) for v in lines.values())
    all_run = sum(1 for v in lines.values() for c in v.values() if c)
    print(f"all src/ lines run: {all_run}/{all_lines} ({100.0 * all_run / all_lines:.1f}%), "
          f"functions run: {sum(1 for r in funcs.values() if r[3])}/{len(funcs)}")

    unrun_funcs = sorted((k for k, r in funcs.items() if not r[3] and k not in allowed_funcs))
    counted_funcs = len(funcs) - len(allowed_funcs)
    func_pct = 100.0 * (counted_funcs - len(unrun_funcs)) / counted_funcs
    unrun_lines = collections.defaultdict(list)
    counted_lines = 0
    for path, per_line in lines.items():
        for n, count in per_line.items():
            if (path, n) in allowed_lines:
                continue
            counted_lines += 1
            if not count:
                unrun_lines[path].append(n)
    n_unrun = sum(len(v) for v in unrun_lines.values())
    line_pct = 100.0 * (counted_lines - n_unrun) / counted_lines

    if unrun_funcs:
        print("\nnever-run functions:")
        for key in unrun_funcs:
            print(f"  {key[0]}:{key[1]}  {funcs[key][0]}")
    if unrun_lines:
        print("\nnever-run lines:")
        for path in sorted(unrun_lines):
            print(f"  {path}: {ranges(unrun_lines[path])}")
    print(f"\nallow-listed: {len(ALLOW)} entries, {len(allowed_funcs)} functions, "
          f"{sum(1 for p, n in allowed_lines if n in lines.get(p, {}))} lines")
    print(f"functions: {counted_funcs - len(unrun_funcs)}/{counted_funcs} ({func_pct:.2f}%), "
          f"floor {args.min_functions}%")
    print(f"lines:     {counted_lines - n_unrun}/{counted_lines} ({line_pct:.2f}%), "
          f"floor {args.min_lines}%")

    if errors:
        return 2
    if func_pct < args.min_functions or line_pct < args.min_lines:
        print("coverage_report: below the floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
