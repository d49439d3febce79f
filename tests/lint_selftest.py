#!/usr/bin/env python3
"""Self-test for scripts/odf_lint.py, run as the `lint_selftest` ctest target.

Checks, against the deliberately-dirty fixtures in tests/lint_fixtures/:
  1. every rule fires where dirty.cc / dirty.h violate it (positive coverage,
     exact file:line:rule triples, asserted from --json output);
  2. clean.cc / clean.h — the same violations with `// odf-lint: allow(...)`
     comments — produce ZERO findings (the suppression mechanism works for
     every rule);
  3. the text output format is `file:line:col: rule-id: message` (what
     compilers and editors parse);
  4. the default tree scan is clean and never descends into the fixture dir.

Exit 0 on success, 1 with a diagnostic on the first failed expectation.
"""

import json
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO_ROOT, "scripts", "odf_lint.py")
DIRTY = ("tests/lint_fixtures/dirty.cc", "tests/lint_fixtures/dirty.h")
CLEAN = ("tests/lint_fixtures/clean.cc", "tests/lint_fixtures/clean.h")

# (file, line, rule) triples dirty.cc / dirty.h must produce. Keep in sync with
# the fixtures — they say "add new cases at the END" for this reason.
EXPECTED_DIRTY = {
    ("tests/lint_fixtures/dirty.cc", 12, "raw-refcount"),
    ("tests/lint_fixtures/dirty.cc", 15, "raw-std-mutex"),
    ("tests/lint_fixtures/dirty.cc", 16, "naked-lock"),
    ("tests/lint_fixtures/dirty.cc", 20, "naked-lock"),
    ("tests/lint_fixtures/dirty.cc", 20, "raw-std-mutex"),
    ("tests/lint_fixtures/dirty.cc", 24, "lockfree-walk-guard"),
    ("tests/lint_fixtures/dirty.cc", 30, "gen-before-free"),
    ("tests/lint_fixtures/dirty.cc", 34, "trace-outside-guard"),
    ("tests/lint_fixtures/dirty.cc", 38, "direct-writeback"),
    ("tests/lint_fixtures/dirty.cc", 42, "naked-lock"),
    ("tests/lint_fixtures/dirty.cc", 42, "table-mutex"),
    ("tests/lint_fixtures/dirty.cc", 46, "hwpoison-flag"),
    ("tests/lint_fixtures/dirty.cc", 50, "thread-fence"),
    ("tests/lint_fixtures/dirty.cc", 54, "lockfree-walk-guard"),
    ("tests/lint_fixtures/dirty.cc", 58, "raw-mmap"),
    ("tests/lint_fixtures/dirty.h", 9, "missing-nodiscard"),
}

TEXT_LINE_RE = re.compile(r"^[^:]+:\d+:\d+: [a-z-]+: .+$")


def run_lint(args):
    return subprocess.run(
        [sys.executable, LINT, *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def fail(message):
    print(f"lint_selftest: FAIL: {message}", file=sys.stderr)
    return 1


def main():
    # 1. Dirty fixtures: exact positive coverage, via --json.
    proc = run_lint(["--json", *DIRTY])
    if proc.returncode != 1:
        return fail(f"dirty fixtures: want exit 1, got {proc.returncode}\n{proc.stderr}")
    findings = json.loads(proc.stdout)
    got = {(f["file"], f["line"], f["rule"]) for f in findings}
    if got != EXPECTED_DIRTY:
        missing = EXPECTED_DIRTY - got
        extra = got - EXPECTED_DIRTY
        return fail(
            f"dirty fixtures: finding set mismatch\n  missing: {sorted(missing)}\n"
            f"  extra: {sorted(extra)}"
        )
    for f in findings:
        if not (isinstance(f["col"], int) and f["col"] >= 1):
            return fail(f"dirty fixtures: bad col in {f}")
        if not f["message"]:
            return fail(f"dirty fixtures: empty message in {f}")

    # 2. Clean fixtures: every violation suppressed.
    proc = run_lint([*CLEAN])
    if proc.returncode != 0:
        return fail(f"clean fixtures: want exit 0, got {proc.returncode}\n{proc.stdout}")

    # 3. Text output format.
    proc = run_lint([*DIRTY])
    if proc.returncode != 1:
        return fail(f"dirty fixtures (text): want exit 1, got {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    body, trailer = lines[:-1], lines[-1]
    if len(body) != len(EXPECTED_DIRTY):
        return fail(f"text output: want {len(EXPECTED_DIRTY)} findings, got {len(body)}")
    for line in body:
        if not TEXT_LINE_RE.match(line):
            return fail(f"text output line not file:line:col: rule-id: message — {line!r}")
    if "finding(s)" not in trailer:
        return fail(f"text output missing summary trailer — {trailer!r}")

    # 4. Tree scan: clean, and the fixture dir is excluded from it.
    proc = run_lint(["--json"])
    if proc.returncode != 0:
        return fail(f"tree scan not clean (exit {proc.returncode}):\n{proc.stdout}")
    if "lint_fixtures" in proc.stdout:
        return fail("tree scan descended into tests/lint_fixtures/")

    print("lint_selftest: PASS "
          f"({len(EXPECTED_DIRTY)} positive findings, suppression, format, tree scan)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
