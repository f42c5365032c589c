#!/usr/bin/env python3
"""Checks that relative markdown links in the repo's docs resolve, and
that every markdown file the code cites exists.

Scans the top-level *.md files and docs/**/*.md for inline links
[text](target) and validates that every relative target exists on disk
(anchors are stripped; http(s)/mailto targets are skipped so the check
stays hermetic). With no arguments it also scans every file under src/,
bench/, tests/ and examples/ for a cited `*.md` name (a path from the
repo root, e.g. docs/ARCHITECTURE.md) and flags each one that does not
exist. Exits non-zero listing every broken link and dangling citation.

Usage: python3 tools/check_links.py [file.md ...]
       (no arguments: scan the default doc set and the code)
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Inline markdown links/images; the target stops at whitespace or ')'.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:")
# Code that may cite docs, and a cited markdown path inside it.
SOURCE_DIRS = ("src", "bench", "tests", "examples")
CITE_RE = re.compile(r"(?<![\w./-])([\w./-]+\.md)\b")


def doc_set(argv):
    if argv:
        return [pathlib.Path(a) for a in argv]
    docs = sorted(ROOT.glob("*.md")) + sorted(ROOT.glob("docs/**/*.md"))
    return docs


def check_file(path):
    broken = []
    text = path.read_text(encoding="utf-8")
    in_code_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES) or target.startswith("#"):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (path.parent / rel).resolve()
            if not resolved.exists():
                broken.append((lineno, target))
    return broken


def dangling_citations(root=ROOT):
    """(path, lineno, name) for each *.md name cited under SOURCE_DIRS
    that does not exist at that path from the repo root."""
    dangling = []
    for top in SOURCE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if not path.is_file():
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for lineno, line in enumerate(text.splitlines(), start=1):
                for match in CITE_RE.finditer(line):
                    if not (root / match.group(1)).exists():
                        dangling.append((path, lineno, match.group(1)))
    return dangling


def main(argv):
    failures = 0
    files = doc_set(argv)
    for path in files:
        if not path.exists():
            print(f"error: no such file: {path}", file=sys.stderr)
            failures += 1
            continue
        for lineno, target in check_file(path):
            rel_path = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
            print(f"{rel_path}:{lineno}: broken link -> {target}",
                  file=sys.stderr)
            failures += 1
    if not argv:
        for path, lineno, name in dangling_citations():
            print(f"{path.relative_to(ROOT)}:{lineno}: cites missing {name}",
                  file=sys.stderr)
            failures += 1
    scope = "" if argv else " and the code's citations"
    print(f"checked {len(files)} markdown file(s){scope}, {failures} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
