#!/usr/bin/env python3
"""Counts the non-test lines of every `crates/*/src/**.rs` file.

A file's non-test lines are all of its lines (code, comments and blank
lines alike) above its top-level `#[cfg(test)]` module; a file without
one counts whole. Integration tests (`tests/`, `crates/*/tests/`),
benches, examples and the `benchmark/` workspace are not under
`crates/*/src` and do not count.

    python3 scripts/nontest_lines.py          # per-file counts and the total
    python3 scripts/nontest_lines.py REV      # the difference from git REV

With REV, only files whose count differs are listed (a file absent on
one side counts 0 there), followed by both totals.
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = re.compile(r"^crates/[^/]+/src/.+\.rs$")
TEST_ATTR = re.compile(r"^#\[cfg\(test\)\]\s*$")
MOD = re.compile(r"^(pub(\([^)]*\))?\s+)?mod\s")


def nontest_lines(text: str) -> int:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if TEST_ATTR.match(line):
            rest = [l for l in lines[i + 1 :] if l.strip()]
            if rest and MOD.match(rest[0]):
                return i
    return len(lines)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def counts_at(rev: str) -> dict:
    listed = git("ls-tree", "-r", "--name-only", rev, "--", "crates").splitlines()
    files = [f for f in listed if SOURCE.match(f)]
    return {f: nontest_lines(git("show", f"{rev}:{f}")) for f in files}


def counts_in_tree() -> dict:
    files = sorted(
        p.relative_to(ROOT).as_posix() for p in ROOT.glob("crates/*/src/**/*.rs")
    )
    return {f: nontest_lines((ROOT / f).read_text()) for f in files if SOURCE.match(f)}


def main() -> None:
    tree = counts_in_tree()
    if len(sys.argv) < 2:
        for f, n in sorted(tree.items()):
            print(f"{n:6d}  {f}")
        print(f"{sum(tree.values()):6d}  total")
        return
    rev = sys.argv[1]
    base = counts_at(rev)
    print(f"| file | {rev} | tree | delta |")
    print("|---|---:|---:|---:|")
    for f in sorted(set(base) | set(tree)):
        a, b = base.get(f, 0), tree.get(f, 0)
        if a != b:
            print(f"| `{f}` | {a} | {b} | {b - a:+d} |")
    a, b = sum(base.values()), sum(tree.values())
    print(f"| **total** | **{a}** | **{b}** | **{b - a:+d}** |")


if __name__ == "__main__":
    main()
