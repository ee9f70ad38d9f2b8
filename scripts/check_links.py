#!/usr/bin/env python3
"""Markdown link checker for the repo docs (CI docs job).

Walks every tracked *.md file, extracts inline links, and fails on:

  * relative links to files that do not exist;
  * fragment links (``file.md#anchor`` or ``#anchor``) whose anchor does
    not match any heading slug in the target file (GitHub slug rules:
    lowercase, punctuation stripped, spaces to hyphens).

External links (http/https/mailto) are not fetched — this gate is about
keeping the cross-references between README / ARCHITECTURE / FLEET /
EXPERIMENTS / PROFILING honest as they evolve, offline and fast.

Usage: python3 scripts/check_links.py  (from anywhere in the repo)
"""

import re
import subprocess
import sys
from pathlib import Path

LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
FENCE_RE = re.compile(r"^(```|~~~)")


def repo_root() -> Path:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        check=True,
        capture_output=True,
        text=True,
    )
    return Path(out.stdout.strip())


def tracked_markdown(root: Path) -> list[Path]:
    """Tracked *.md files still on disk: a deletion not yet staged is
    skipped here, and links that point at it still report as broken."""
    out = subprocess.run(
        ["git", "ls-files", "*.md", "**/*.md"],
        check=True,
        capture_output=True,
        text=True,
        cwd=root,
    )
    paths = (root / line for line in out.stdout.splitlines() if line)
    return [path for path in paths if path.exists()]


def strip_fences(text: str) -> str:
    """Drop fenced code blocks — their brackets are not links."""
    kept, fence = [], None
    for line in text.splitlines():
        m = FENCE_RE.match(line.strip())
        if m:
            fence = None if fence else m.group(1)
            continue
        if fence is None:
            kept.append(line)
    return "\n".join(kept)


def slugify(heading: str) -> str:
    """GitHub's anchor slug: strip markup, lowercase, drop punctuation,
    spaces and hyphens collapse to single hyphens at word boundaries."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path, cache: dict) -> set:
    if path not in cache:
        slugs = set()
        for line in strip_fences(path.read_text(encoding="utf-8")).splitlines():
            m = HEADING_RE.match(line)
            if m:
                slug = slugify(m.group(1))
                # GitHub de-duplicates repeated headings as slug-1, -2, …
                n, candidate = 1, slug
                while candidate in slugs:
                    candidate = f"{slug}-{n}"
                    n += 1
                slugs.add(candidate)
        cache[path] = slugs
    return cache[path]


def main() -> int:
    root = repo_root()
    anchor_cache: dict = {}
    errors = []
    files = tracked_markdown(root)
    checked = 0
    for md in files:
        body = strip_fences(md.read_text(encoding="utf-8"))
        for target in LINK_RE.findall(body):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            checked += 1
            path_part, _, fragment = target.partition("#")
            dest = md if not path_part else (md.parent / path_part).resolve()
            rel = md.relative_to(root)
            if not dest.exists():
                errors.append(f"{rel}: broken link `{target}` (no such file)")
                continue
            if fragment and dest.suffix == ".md":
                if fragment not in anchors_of(dest, anchor_cache):
                    errors.append(
                        f"{rel}: broken anchor `{target}` "
                        f"(no heading slugs to `#{fragment}` in {dest.name})"
                    )
    if errors:
        print(f"link check FAILED: {len(errors)} broken link(s)", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        return 1
    print(f"link check passed: {checked} internal link(s) across {len(files)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
