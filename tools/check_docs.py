#!/usr/bin/env python3
"""Documentation consistency checker (CI `docs` job).

Three guarantees, so the docs cannot silently rot as the tree grows:

  1. Every intra-repository markdown link resolves: for each `[text](target)`
     in a tracked *.md file whose target is not an external URL or a pure
     anchor, the referenced file (relative to the linking file) must exist.
  2. docs/ARCHITECTURE.md stays complete: every module directory under src/
     must be mentioned (as `src/<module>/`), so adding a module without
     documenting it fails CI.
  3. The docs name no deleted API: every CamelCase identifier, every
     k-prefixed constant (kAll, kEnumeration) and every capitalised name
     after `::` (the Derive of Snapshot::Derive) inside an inline code span
     of README.md or docs/*.md must occur as a word in the code (src/, tests/,
     bench/, examples/, servebench/, tools/), a CMake file or .github/. In
     C++ sources (.h/.cc/.cpp) comments are stripped first, so a deleted
     name that survives only in a comment does not count.

Stdlib only; exits non-zero with one line per violation.
"""

import argparse
import pathlib
import re
import sys

# [text](target) — target captured up to the closing paren; markdown image
# links ![alt](target) match the same pattern via the [alt] part.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_DIRS = {".git", "build", "third_party", ".ccache"}

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

# Where a documented identifier may be defined or used (each directory's
# own CMakeLists.txt included), besides the root CMakeLists.txt.
CODE_DIRS = ("src", "tests", "bench", "examples", "servebench", "tools",
             "cmake", ".github")

FENCE_RE = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
# CamelCase with two or more humps (MisEngine, RelWithDebInfo) or a
# k-prefixed constant (kAll, kDefaultRepairListLimit); DNF does not match.
NAME_RE = re.compile(
    r"\b(?:[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+|k[A-Z][A-Za-z0-9]*)\b")
# The member of a qualified name (Snapshot::Derive), which NAME_RE misses
# when it has a single hump.
QUALIFIED_RE = re.compile(r"::([A-Z][A-Za-z0-9_]*)")
WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CPP_SUFFIXES = {".h", ".cc", ".cpp"}
# A C++ string or character literal (kept: a name in a string is code) or
# a comment (dropped).
CPP_TOKEN_RE = re.compile(
    r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|//[^\n]*|/\*.*?\*/',
    re.DOTALL)


def strip_cpp_comments(text: str) -> str:
    return CPP_TOKEN_RE.sub(
        lambda m: " " if m.group(0).startswith("/") else m.group(0), text)


def markdown_files(root: pathlib.Path):
    for path in sorted(root.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.parts):
            continue
        yield path


def check_links(root: pathlib.Path) -> list:
    errors = []
    for md in markdown_files(root):
        text = md.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            if target.startswith("#"):  # intra-document anchor
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(
                    f"{md.relative_to(root)}: broken link '{target}'"
                )
    return errors


def check_architecture_coverage(root: pathlib.Path) -> list:
    arch = root / "docs" / "ARCHITECTURE.md"
    if not arch.exists():
        return ["docs/ARCHITECTURE.md does not exist"]
    text = arch.read_text(encoding="utf-8")
    errors = []
    src = root / "src"
    for module in sorted(p.name for p in src.iterdir() if p.is_dir()):
        if f"src/{module}/" not in text:
            errors.append(
                f"docs/ARCHITECTURE.md: module 'src/{module}/' is not"
                " documented"
            )
    return errors


def code_words(root: pathlib.Path) -> set:
    files = [p for d in CODE_DIRS for p in sorted((root / d).rglob("*"))]
    files.append(root / "CMakeLists.txt")
    words = set()
    for path in files:
        if not path.is_file() or any(part in SKIP_DIRS for part in path.parts):
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue  # binary artifact
        if path.suffix in CPP_SUFFIXES:
            text = strip_cpp_comments(text)
        words.update(WORD_RE.findall(text))
    return words


def check_documented_names(root: pathlib.Path) -> list:
    words = code_words(root)
    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    errors = []
    for md in docs:
        if not md.exists():
            continue
        text = FENCE_RE.sub("", md.read_text(encoding="utf-8"))
        names = {name for span in CODE_SPAN_RE.findall(text)
                 for regex in (NAME_RE, QUALIFIED_RE)
                 for name in regex.findall(span)}
        for name in sorted(names - words):
            errors.append(
                f"{md.relative_to(root)}: `{name}` occurs nowhere in the"
                " code, CMake or CI files"
            )
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the parent of tools/)",
    )
    args = parser.parse_args()

    errors = (check_links(args.root) + check_architecture_coverage(args.root)
              + check_documented_names(args.root))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if not errors:
        count = len(list(markdown_files(args.root)))
        print(f"docs check OK ({count} markdown files)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
