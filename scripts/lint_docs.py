#!/usr/bin/env python3
"""Documentation gates for CI (no dependencies beyond the stdlib).

1. Link check: every relative markdown link in docs/*.md and README.md
   must point at an existing file, and a #fragment into a markdown file
   must match a heading anchor there (GitHub slug rules, simplified).
2. Header comment lint: public headers in HEADER_DIRS must open with a
   file-level comment, and every namespace-scope class, struct or enum
   declaration must be preceded by a doc comment (`///` or `//`); for a
   class template the comment sits above its `template <...>` line.

Usage: lint_docs.py [--root REPO_ROOT]
Exits non-zero listing every violation.
"""

import argparse
import pathlib
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
DECL_RE = re.compile(r"^(class|struct|enum(?:\s+class)?)\s+\w+")

HEADER_DIRS = ("src/akg", "src/baseline", "src/cluster", "src/detect",
               "src/engine", "src/eval", "src/graph", "src/ingest",
               "src/rank", "src/stream", "src/text")


def github_slug(heading):
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def heading_anchors(path):
    anchors = set()
    in_code = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        m = HEADING_RE.match(line)
        if m:
            anchors.add(github_slug(m.group(1)))
    return anchors


def check_links(root):
    errors = []
    pages = sorted((root / "docs").glob("*.md")) + [root / "README.md"]
    for page in pages:
        in_code = False
        for lineno, line in enumerate(
                page.read_text(encoding="utf-8").splitlines(), 1):
            if line.startswith("```"):
                in_code = not in_code
                continue
            if in_code:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                where = f"{page.relative_to(root)}:{lineno}"
                file_part, _, fragment = target.partition("#")
                dest = (page.parent / file_part).resolve() if file_part \
                    else page
                if not dest.exists():
                    errors.append(f"{where}: broken link -> {target}")
                    continue
                if fragment and dest.suffix == ".md":
                    if github_slug(fragment) not in heading_anchors(dest):
                        errors.append(
                            f"{where}: missing anchor -> {target}")
    return errors


def check_headers(root):
    errors = []
    for directory in HEADER_DIRS:
        for header in sorted((root / directory).glob("*.h")):
            rel = header.relative_to(root)
            lines = header.read_text(encoding="utf-8").splitlines()
            if not lines or not lines[0].startswith("//"):
                errors.append(f"{rel}:1: header must open with a "
                              "file-level comment block")
            depth = 0
            for lineno, line in enumerate(lines, 1):
                stripped = line.strip()
                code = line.split("//")[0]
                # Only lint namespace-scope declarations: inside a class
                # body (brace depth beyond the namespace) nested types are
                # implementation detail.
                if depth <= 1 and line and not line[0].isspace():
                    m = DECL_RE.match(stripped)
                    if m and not stripped.endswith(";"):
                        above = lineno - 2
                        if above >= 0 and \
                                lines[above].startswith("template"):
                            above -= 1
                        prev = lines[above].strip() if above >= 0 else ""
                        if not prev.startswith(("//", "///")):
                            errors.append(
                                f"{rel}:{lineno}: {m.group(0)!r} needs a "
                                "doc comment on the preceding line")
                depth += code.count("{") - code.count("}")
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", default=".")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()

    errors = check_links(root) + check_headers(root)
    for error in errors:
        print(f"::error::{error}")
    if errors:
        print(f"lint_docs: {len(errors)} violation(s)")
        return 1
    print("lint_docs: docs links and header doc comments OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
