#!/usr/bin/env python3
"""Documentation lint: link check, docstring check, and doc execution.

Stdlib only, so CI (and anyone) can run it without installing anything
(doc execution runs the repo's own examples, which may import numpy):

    python tools/check_docs.py [repo-root] [--no-exec]

Four checks, all fail the build on violations:

1. **Markdown links** — every relative link or image target in
   ``docs/*.md`` and ``README.md`` must resolve to an existing file or
   directory (anchors and external ``http(s):``/``mailto:`` targets are
   not checked).
2. **Docstring presence** — every public module and public class in
   ``src/repro`` (name not starting with ``_``) must carry a docstring.
   The public surface documented in ``docs/api.md`` defers to docstrings
   for full signatures, so they have to exist.
3. **Doc execution** — every fenced code block whose info string is
   exactly ``python`` is executable documentation.  Per file, the blocks
   are concatenated top-to-bottom (pages build examples cumulatively)
   and run as one script in a scratch directory with ``PYTHONPATH=src``;
   a non-zero exit fails the lint.  Illustrative fragments opt out by
   tagging the fence ``python snippet``.  Skip the whole check (e.g. in
   an environment without numpy) with ``--no-exec``.
4. **Recorded claims** — a sentence that calls a number *recorded* must
   quote a number some ``BENCH_*.json`` at the repo root holds.  Every
   measurement-looking number in such a sentence (one with a decimal
   point, or an integer with thousands separators, outside inline code)
   must equal a number in one of those files, as written: ``3.92``
   matches a stored ``3.9187``, ``332,739`` matches ``332739``.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

#: inline links/images: [text](target) — target captured up to ) or space
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_EXTERNAL = ("http://", "https://", "mailto:")
_FENCE_RE = re.compile(r"^(```|~~~)")
_RECORDED_RE = re.compile(r"\brecorded\b", re.IGNORECASE)
#: decimals (``3.92``) and separated integers (``332,739``), not part of a
#: longer token such as a version string or a section number
_MEASURE_RE = re.compile(r"(?<![\w.,])(\d{1,3}(?:,\d{3})+|\d+\.\d+)(?!\d|[.,]\d)")


def iter_markdown(root: Path):
    yield root / "README.md"
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def check_links(root: Path) -> list[str]:
    errors = []
    for md in iter_markdown(root):
        if not md.exists():
            errors.append(f"{md.relative_to(root)}: file listed for checking is missing")
            continue
        in_fence = False
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            if _FENCE_RE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            line = re.sub(r"`[^`]*`", "", line)  # inline code is not a link
            for target in _LINK_RE.findall(line):
                if target.startswith(_EXTERNAL) or target.startswith("#"):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{md.relative_to(root)}:{lineno}: broken link -> {target}"
                    )
    return errors


def _missing_docstrings(tree: ast.Module, relpath: str) -> list[str]:
    errors = []
    if ast.get_docstring(tree) is None:
        errors.append(f"{relpath}:1: public module has no docstring")
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if ast.get_docstring(node) is None:
            errors.append(
                f"{relpath}:{node.lineno}: public class "
                f"'{node.name}' has no docstring"
            )
    return errors


def check_docstrings(root: Path) -> list[str]:
    errors = []
    src = root / "src" / "repro"
    for py in sorted(src.rglob("*.py")):
        relpath = str(py.relative_to(root))
        if py.name.startswith("_") and py.name != "__init__.py":
            continue
        try:
            tree = ast.parse(py.read_text(), filename=relpath)
        except SyntaxError as exc:  # pragma: no cover - would fail tests anyway
            errors.append(f"{relpath}: syntax error: {exc}")
            continue
        errors.extend(_missing_docstrings(tree, relpath))
    return errors


def _prose_sentences(md: Path):
    """``(lineno, sentence)`` of the prose outside code fences, with
    inline code removed; a sentence may span the lines of a paragraph."""
    in_fence, start, lines = False, 0, []
    for lineno, line in enumerate(md.read_text().splitlines() + [""], 1):
        stripped = line.strip()
        if _FENCE_RE.match(stripped):
            in_fence = not in_fence
        elif stripped and not in_fence:
            start = start or lineno
            lines.append(stripped)
            continue
        # a blank line or a fence ends the paragraph
        text = re.sub(r"`[^`]*`", "", "\n".join(lines))
        pos = 0
        for sentence in re.split(r"(?<=[.!?])\s+", text) if lines else []:
            yield start + text.count("\n", 0, pos), sentence
            pos += len(sentence) + 1
        start, lines = 0, []


def _bench_numbers(root: Path) -> list:
    numbers = []

    def walk(value):
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            numbers.append(value)
        elif isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)

    for path in sorted(root.glob("BENCH_*.json")):
        walk(json.loads(path.read_text()))
    return numbers


def _held(quoted: str, numbers: list) -> bool:
    if "," in quoted:
        return int(quoted.replace(",", "")) in numbers
    places = len(quoted.split(".")[1])
    return any(f"{n:.{places}f}" == quoted for n in numbers)


def check_recorded_claims(root: Path) -> list[str]:
    errors = []
    numbers = _bench_numbers(root)
    for md in iter_markdown(root):
        if not md.exists():
            continue
        for lineno, sentence in _prose_sentences(md):
            if not _RECORDED_RE.search(sentence):
                continue
            for quoted in _MEASURE_RE.findall(sentence):
                if not _held(quoted, numbers):
                    errors.append(
                        f"{md.relative_to(root)}:{lineno}: {quoted} is quoted as "
                        "recorded, but no BENCH_*.json holds it"
                    )
    return errors


def extract_python_blocks(md: Path) -> list[tuple[int, str]]:
    """``(first_lineno, code)`` for each fence tagged exactly ``python``."""
    blocks: list[tuple[int, str]] = []
    fence_tag: str | None = None  # info string of the fence we are inside
    start = 0
    lines: list[str] = []
    for lineno, line in enumerate(md.read_text().splitlines(), 1):
        stripped = line.strip()
        if _FENCE_RE.match(stripped):
            if fence_tag is None:
                fence_tag = stripped.lstrip("`~").strip()
                start = lineno + 1
                lines = []
            else:
                if fence_tag == "python":
                    blocks.append((start, "\n".join(lines)))
                fence_tag = None
            continue
        if fence_tag is not None:
            lines.append(line)
    return blocks


def check_doc_execution(root: Path) -> tuple[list[str], int]:
    """Run each page's ``python`` fences as one cumulative script."""
    errors: list[str] = []
    n_blocks = 0
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for md in iter_markdown(root):
        if not md.exists():
            continue
        blocks = extract_python_blocks(md)
        if not blocks:
            continue
        n_blocks += len(blocks)
        relpath = md.relative_to(root)
        # One script per page: later blocks may use earlier blocks' names
        # (tutorials define a worker, then run it).  Line directives keep
        # tracebacks pointing at the markdown source.
        script = "\n".join(
            f"# --- {relpath} fence at line {lineno} ---\n{code}"
            for lineno, code in blocks
        )
        with tempfile.TemporaryDirectory(prefix="docexec-") as scratch:
            path = Path(scratch) / f"{md.stem}_doc.py"
            path.write_text(script + "\n")
            proc = subprocess.run(
                [sys.executable, str(path)],
                cwd=scratch,  # examples that write files stay out of the repo
                env=env,
                capture_output=True,
                text=True,
                timeout=600,
            )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-12:]
            errors.append(
                f"{relpath}: python examples failed (exit {proc.returncode}, "
                f"{len(blocks)} blocks):\n    " + "\n    ".join(tail)
            )
    return errors, n_blocks


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if a != "--no-exec"]
    run_exec = "--no-exec" not in argv
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parents[1]
    link_errors = check_links(root)
    doc_errors = check_docstrings(root)
    claim_errors = check_recorded_claims(root)
    exec_errors: list[str] = []
    n_blocks = 0
    if run_exec:
        exec_errors, n_blocks = check_doc_execution(root)
    for err in link_errors + doc_errors + claim_errors + exec_errors:
        print(err)
    n_md = sum(1 for _ in iter_markdown(root))
    print(
        f"checked {n_md} markdown files "
        f"({len(link_errors)} broken links), "
        f"docstrings in src/repro ({len(doc_errors)} missing), "
        f"recorded claims ({len(claim_errors)} not in a BENCH file), "
        + (
            f"executed {n_blocks} python doc blocks ({len(exec_errors)} pages failed)"
            if run_exec
            else "doc execution skipped (--no-exec)"
        )
    )
    return 1 if (link_errors or doc_errors or claim_errors or exec_errors) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
