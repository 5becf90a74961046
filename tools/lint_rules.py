#!/usr/bin/env python3
"""Project-rule lint for met — the checks clang-tidy doesn't express.

Rules (each failure prints `path:line: [rule] message`, exit 1):

  raw-assert          `assert(` is banned outside src/common/assert.h: it
                      vanishes under NDEBUG and bypasses the MET_ASSERT
                      diagnostics. Use MET_ASSERT / MET_DCHECK.
  raw-sync-member     std::mutex / std::shared_mutex / std::condition_variable
                      declared as a class member outside the allowlist. Raw
                      primitives are invisible to clang thread-safety analysis
                      and to the met::race schedule explorer; use the
                      annotated wrappers in common/sync.h.
  nodiscard-status    met::io::Status must stay declared [[nodiscard]] (the
                      compiler then flags every silently-dropped return).
  void-status-bare    `(void)foo(...)` on a Status-returning call without an
                      explanatory comment on the same or previous line —
                      intentional drops must say why.
  published-pointee   sync::Atomic<T*> with a non-const pointee: a published
                      object is read concurrently and must be immutable after
                      publication (sync::Atomic<const T*>).

Run from the repo root:  python3 tools/lint_rules.py [--root DIR]
"""

import argparse
import os
import re
import sys

SRC_EXTS = {".h", ".cc"}

# Files allowed to use raw sync primitives: the wrappers themselves and the
# scheduler underneath them (its handshake must not create yield points).
RAW_SYNC_ALLOWLIST = {
    "src/common/sync.h",
    "src/race/sched.cc",
}

# assert() is only defined (and wrapped) here.
RAW_ASSERT_ALLOWLIST = {
    "src/common/assert.h",
}

RAW_ASSERT_RE = re.compile(r"(?<![_A-Za-z0-9])assert\s*\(")
# Member declarations like `std::mutex mu_;` / `mutable std::shared_mutex m;`
# (declaration = type at statement start; uses inside sync.h templates and
# lock function arguments do not match).
RAW_SYNC_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::(mutex|shared_mutex|condition_variable(?:_any)?)"
    r"\s+\w+\s*(?:;|\{)"
)
# `(void)expr(...)` call discards only — `(void)param;` silencing is fine.
VOID_STATUS_RE = re.compile(r"^\s*\(void\)\s*[\w.>:\[\]*-]*\w\s*\(")
COMMENT_RE = re.compile(r"//|/\*")
ATOMIC_PTR_RE = re.compile(r"sync::Atomic<\s*(?!const\b)([A-Za-z_][\w:<> ]*?)\s*\*\s*>")


def iter_source_files(root):
    for sub in ("src", "tools", "tests", "bench"):
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if os.path.splitext(name)[1] in SRC_EXTS:
                    yield os.path.join(dirpath, name)


def strip_strings(line):
    """Blanks out string/char literals so their contents can't match rules."""
    out = []
    quote = None
    i = 0
    while i < len(line):
        ch = line[i]
        if quote:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch in "\"'":
            quote = ch
            out.append(ch)
            i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out) if quote is None else "".join(out)


def lint_file(root, path, failures):
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        failures.append(f"{rel}:0: [io] cannot read: {e}")
        return

    in_block_comment = False
    prev_code = ""
    for lineno, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        # Drop // comments and track /* ... */ blocks for rule matching.
        code = strip_strings(line)
        if "/*" in code and "*/" not in code[code.find("/*"):]:
            in_block_comment = True
        comment_idx = len(code)
        for marker in ("//", "/*"):
            idx = code.find(marker)
            if 0 <= idx < comment_idx:
                comment_idx = idx
        has_comment = comment_idx < len(code.rstrip()) or in_block_comment
        code = code[:comment_idx]

        if RAW_ASSERT_RE.search(code) and rel not in RAW_ASSERT_ALLOWLIST:
            if not re.search(r"static_assert|_assert|assert_h", code):
                failures.append(
                    f"{rel}:{lineno}: [raw-assert] use MET_ASSERT/MET_DCHECK, "
                    "not assert() (vanishes under NDEBUG)")

        if rel.startswith("src/") and rel not in RAW_SYNC_ALLOWLIST:
            m = RAW_SYNC_MEMBER_RE.search(code)
            if m:
                failures.append(
                    f"{rel}:{lineno}: [raw-sync-member] std::{m.group(1)} "
                    "member is invisible to thread-safety analysis and "
                    "met::race; use the common/sync.h wrapper")

        if rel.startswith("src/"):
            m = ATOMIC_PTR_RE.search(code)
            if m:
                failures.append(
                    f"{rel}:{lineno}: [published-pointee] "
                    f"sync::Atomic<{m.group(1)}*> publishes a mutable "
                    "pointee; published objects must be const "
                    "after publication")

        if rel.startswith("src/") and VOID_STATUS_RE.search(code):
            # Intentional drop: require a comment here, on the previous
            # line, or a trailing comment on the preceding code line.
            prev_comment = prev_code.strip().startswith(("//", "/*")) or \
                COMMENT_RE.search(prev_code) is not None
            if not has_comment and not prev_comment:
                failures.append(
                    f"{rel}:{lineno}: [void-status-bare] (void)-discard "
                    "without a comment saying why the result is ignorable")
        prev_code = raw

    return


def check_nodiscard_status(root, failures):
    path = os.path.join(root, "src", "io", "status.h")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        failures.append(f"src/io/status.h:0: [nodiscard-status] unreadable: {e}")
        return
    if not re.search(r"class\s*\[\[nodiscard\]\]\s*Status", text):
        failures.append(
            "src/io/status.h:0: [nodiscard-status] io::Status lost its "
            "class-level [[nodiscard]]; dropped I/O errors would go silent")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()

    failures = []
    check_nodiscard_status(args.root, failures)
    n_files = 0
    for path in iter_source_files(args.root):
        n_files += 1
        lint_file(args.root, path, failures)

    for f in failures:
        print(f)
    print(f"lint_rules: {n_files} files, {len(failures)} violation(s)",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
