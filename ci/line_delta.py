#!/usr/bin/env python3
"""Non-test library lines per crate, at a git revision and in the working tree.

Usage: ci/line_delta.py REV [--files]

Counts the lines of `crates/*/src/**/*.rs` and `src/**/*.rs` that hold code:
blank lines and comment-only lines (doc comments included) are not counted,
and neither is any item under `#[cfg(test)]` (the unit-test modules). So a
change that only deletes comments or tests does not read as a reduction.
Prints one row per crate (the facade crate is `src`) with the count at REV,
in the working tree (untracked files included) and the difference;
`--files` adds a row per changed file. Run it from anywhere inside the
repository.
"""

import os
import re
import subprocess
import sys
from collections import defaultdict

SCOPE = re.compile(r"^(crates/[^/]+/src/.*\.rs|src/.*\.rs)$")
RAW_STR = re.compile(r'b?r(#*)"')
STR = re.compile(r'b?"')
CHAR = re.compile(r"b?'(?:\\(?:u\{[0-9a-fA-F]+\}|x[0-9a-fA-F]{2}|.)|[^\\'\n])'")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def blank(text, fill):
    return "".join("\n" if ch == "\n" else fill for ch in text)


def code_only(src):
    """`src` with comments turned into spaces and the insides of string and
    char literals into `x`, newlines kept: what is left is the code."""
    out, i, n = [], 0, len(src)
    while i < n:
        after_ident = i > 0 and (src[i - 1].isalnum() or src[i - 1] == "_")
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j == -1 else j
            out.append(blank(src[i:j], " "))
            i = j
            continue
        if src.startswith("/*", i):
            depth, j = 0, i
            while j < n:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                    if depth == 0:
                        break
                else:
                    j += 1
            out.append(blank(src[i:j], " "))
            i = j
            continue
        m = None if after_ident else RAW_STR.match(src, i)
        if m:
            close = '"' + m.group(1)
            j = src.find(close, m.end())
            j = n if j == -1 else j
            out.append(m.group(0) + blank(src[m.end() : j], "x") + close)
            i = j + len(close)
            continue
        m = None if after_ident and src[i] != '"' else STR.match(src, i)
        if m:
            j = m.end()
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append(m.group(0) + blank(src[m.end() : j], "x") + '"')
            i = j + 1
            continue
        m = None if after_ident else CHAR.match(src, i)
        if m:  # a char literal; a lifetime or label does not match
            out.append(blank(m.group(0), "x"))
            i = m.end()
            continue
        out.append(src[i])
        i += 1
    return "".join(out)


def count_code_lines(src):
    """Lines holding code outside `#[cfg(test)]` items."""
    count, skipping, depth, opened = 0, False, 0, False
    for line in code_only(src).split("\n"):
        code = line.strip()
        if not skipping and code.startswith("#[cfg(test)]"):
            skipping, depth, opened = True, 0, False
            code = code[len("#[cfg(test)]") :].strip()
        if not skipping:
            count += bool(code)
            continue
        if not code or (not opened and code.startswith("#[")):
            continue
        depth += code.count("{") - code.count("}")
        opened = opened or "{" in code
        if (opened and depth <= 0) or (not opened and ";" in code):
            skipping = False
    return count


def crate_of(path):
    parts = path.split("/")
    return parts[1] if parts[0] == "crates" else "src"


def counts_at(rev):
    files = git("ls-tree", "-r", "--name-only", rev).split("\n")
    return {p: count_code_lines(git("show", f"{rev}:{p}")) for p in files if SCOPE.match(p)}


def counts_in_worktree():
    out = {}
    for p in git("ls-files", "--cached", "--others", "--exclude-standard").split("\n"):
        if SCOPE.match(p) and os.path.exists(p):
            with open(p, encoding="utf-8") as f:
                out[p] = count_code_lines(f.read())
    return out


def main():
    args = [a for a in sys.argv[1:] if a != "--files"]
    if len(args) != 1:
        sys.exit(__doc__)
    rev = args[0]
    os.chdir(git("rev-parse", "--show-toplevel").strip())
    before, after = counts_at(rev), counts_in_worktree()
    per_crate = defaultdict(lambda: [0, 0])
    for side, counts in enumerate((before, after)):
        for p, n in counts.items():
            per_crate[crate_of(p)][side] += n
    print(f"{'crate':<12} {git('rev-parse', '--short', rev).strip():>9} {'worktree':>9} {'delta':>7}")
    for crate, (b, a) in sorted(per_crate.items()):
        print(f"{crate:<12} {b:>9} {a:>9} {a - b:>+7}")
    tb, ta = (sum(v[side] for v in per_crate.values()) for side in (0, 1))
    print(f"{'total':<12} {tb:>9} {ta:>9} {ta - tb:>+7}")
    if "--files" in sys.argv[1:]:
        print()
        for p in sorted(set(before) | set(after)):
            b, a = before.get(p, 0), after.get(p, 0)
            if a != b:
                print(f"{p:<48} {b:>6} {a:>6} {a - b:>+6}")


if __name__ == "__main__":
    main()
