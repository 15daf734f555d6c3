#!/usr/bin/env python
"""Check markdown links in README.md and docs/ for dead targets.

A docs-archetype repo earns its keep only while the docs stay navigable,
so CI runs this checker over every tracked markdown file.  It validates:

* relative file links — the target must exist relative to the linking
  file (query strings are rejected, ``#anchor`` suffixes are split off);
* intra-file and cross-file heading anchors — ``#some-heading`` must
  match a heading slug or an explicit ``<a id="...">`` in the target;
* bare ``http(s)://`` links are *not* fetched (CI must stay offline) but
  are counted so the summary shows coverage;
* backtick-quoted symbol anchors — ``` `src/repro/x.py::Name` ``` or
  ``` `src/repro/x.py::Class.method` ``` (or pytest's ``Class::method``)
  must name a class, function or assignment that ``ast`` finds in that
  file, and a bare continuation
  ``` `::Name` ``` reuses the most recent file named earlier on the same
  line (the table idiom in ``docs/paper_mapping.md``).  A path with a
  directory is relative to the repo root; a bare file name is a test or
  bench named pytest-style (``test_x.py::TestY``), looked up under
  ``tests/`` and ``benchmarks/``;
* the retired ``file:line`` form (``` `src/repro/x.py:42` ```, ``` `:42` ```)
  is rejected outright: a line number drifts with every edit above it
  and still "resolves" while pointing at the wrong code, a symbol does
  not.

Usage:

    python tools/check_doc_links.py            # check default file set
    python tools/check_doc_links.py FILE...    # check specific files

Exit status 0 when every link resolves, 1 otherwise (each failure is
printed as ``file: [text](target): reason``).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — ignores images' leading ``!`` by matching it off.
LINK_RE = re.compile(r"!?\[([^\]]*)\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
ANCHOR_ID_RE = re.compile(r'<a\s+id="([^"]+)"')
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
#: ``` `path/to/file.py::Name` ``` / ``` `file.py::Class.method` ``` or a
#: bare continuation ``` `::Name` ``` that reuses the most recent file named
#: earlier on the same line.
SYMBOL_RE = re.compile(r"`([A-Za-z0-9_./\-]+\.py)?::([A-Za-z_]\w*(?:(?:\.|::)[A-Za-z_]\w*)*)`")
#: The retired ``` `path/to/file.py:42` ``` / ``` `:42` ``` line anchors.
LINE_ANCHOR_RE = re.compile(r"`([A-Za-z0-9_./\-]+\.(?:py|md|toml|yml|yaml|json))?:(\d+)`")
#: Where a bare file name (no directory) is looked up, in order.
BARE_NAME_DIRS = ("tests", "benchmarks")


def default_files() -> List[Path]:
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def slugify(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading.

    Lowercase, spaces to hyphens, punctuation (except hyphens/underscores)
    dropped; backticks and markdown emphasis stripped first.
    """
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path, cache: Dict[Path, Set[str]]) -> Set[str]:
    """All heading slugs and explicit ``<a id>`` anchors in ``path``."""
    if path in cache:
        return cache[path]
    slugs: Set[str] = set()
    seen: Dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if m:
            slug = slugify(m.group(1))
            n = seen.get(slug, 0)
            seen[slug] = n + 1
            slugs.add(slug if n == 0 else f"{slug}-{n}")
        for aid in ANCHOR_ID_RE.findall(line):
            slugs.add(aid)
    cache[path] = slugs
    return slugs


def _display(path: Path) -> Path:
    """``path`` relative to the repo when inside it, absolute otherwise."""
    try:
        return path.relative_to(REPO)
    except ValueError:
        return path


def check_file(path: Path, cache: Dict[Path, Set[str]]) -> List[str]:
    """Return a list of failure strings for ``path``."""
    failures: List[str] = []
    in_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for text, target in LINK_RE.findall(line):
            reason = check_link(path, target, cache)
            if reason:
                failures.append(f"{_display(path)}:{lineno}: [{text}]({target}): {reason}")
        for anchor, reason in check_symbol_anchors(line, cache):
            failures.append(f"{_display(path)}:{lineno}: `{anchor}`: {reason}")
    return failures


def resolve_source(name: str) -> Optional[Path]:
    """The file a symbol anchor names, or ``None`` when there is none."""
    if "/" in name:
        candidates = [REPO / name]
    else:
        candidates = [REPO / d / name for d in BARE_NAME_DIRS]
    return next((c for c in candidates if c.is_file()), None)


def symbols_of(path: Path, cache: Dict[Path, Set[str]]) -> Set[str]:
    """Dotted names ``path`` defines: classes, functions and assignments at
    module level, and the same inside each class (``Class.method``)."""
    if path in cache:
        return cache[path]
    names: Set[str] = set()

    def visit(body: List[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.Assign):
                names.update(prefix + t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(prefix + node.target.id)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body, "")
    cache[path] = names
    return names


def check_symbol_anchors(line: str, cache: Dict[Path, Set[str]]) -> List[Tuple[str, str]]:
    """``(anchor, reason)`` pairs for every broken anchor on ``line``.

    A continuation anchor (``` `::Name` ```) binds to the most recent file
    named earlier on the same line; one with no antecedent is itself a
    failure.  Symbols come from parsing the current working tree, so the
    check catches an anchor whose symbol was renamed or deleted.
    """
    failures: List[Tuple[str, str]] = [
        (m.group(0).strip("`"), "line anchors drift with every edit; name the symbol as `path.py::Name`")
        for m in LINE_ANCHOR_RE.finditer(line)
    ]
    last_file = ""
    for m in SYMBOL_RE.finditer(line):
        file_part, symbol = m.group(1), m.group(2)
        if file_part:
            last_file = file_part
        elif not last_file:
            failures.append((m.group(0).strip("`"), "continuation `::Name` anchor has no preceding file on this line"))
            continue
        anchor = f"{last_file}::{symbol}"
        source = resolve_source(last_file)
        if source is None:
            failures.append((anchor, f"target file {last_file} does not exist"))
        elif symbol.replace("::", ".") not in symbols_of(source, cache):
            failures.append((anchor, f"{last_file} defines no `{symbol}`"))
    return failures


def check_link(source: Path, target: str, cache: Dict[Path, Set[str]]) -> str:
    """Empty string when the link resolves, else a failure reason."""
    if target.startswith(("http://", "https://", "mailto:")):
        return ""  # external; not fetched offline
    if target.startswith("#"):
        anchor = target[1:]
        if anchor not in anchors_of(source, cache):
            return f"no heading with anchor #{anchor} in this file"
        return ""
    file_part, _, anchor = target.partition("#")
    resolved = (source.parent / file_part).resolve()
    if not resolved.exists():
        return f"target file {file_part} does not exist"
    if anchor:
        if resolved.suffix.lower() != ".md":
            return ""
        if anchor not in anchors_of(resolved, cache):
            return f"no heading with anchor #{anchor} in {file_part}"
    return ""


def main(argv: List[str]) -> int:
    files = [Path(a).resolve() for a in argv] if argv else default_files()
    cache: Dict[Path, Set[str]] = {}
    failures: List[str] = []
    n_links = 0
    n_anchors = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        n_links += len(LINK_RE.findall(text))
        n_anchors += len(SYMBOL_RE.findall(text))
        failures.extend(check_file(path, cache))
    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"{len(failures)} broken link(s) across {len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"{len(files)} file(s), {n_links} link(s), {n_anchors} symbol anchor(s): all resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
