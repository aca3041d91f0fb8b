"""Mechanical fixes for a small set of rules (``repro lint --fix``).

Three rules have a fix that is correct by construction and cheap to
verify by re-linting:

* **DET001** -- wrap the set-typed expression in ``sorted(...)``: the
  consumer then sees a deterministic order regardless of hash
  randomization.
* **SIM002** -- wrap a bare ``x.probe(...)`` / ``x.frame_probe(...)``
  statement in the required ``if x.probe is not None:`` guard.
* **RES003** -- insert the missing probe disarm (``x.probe = None``)
  before the leaking ``return``, as directed by the finding's
  ``fix_hint`` (the typestate rule computes the exact line).

Fixes are applied as text edits spanning the node's
``lineno``/``end_lineno`` range, bottom-up so earlier edits never
invalidate later offsets, then the file is re-linted; the loop repeats
until no fixable finding remains (a fix can unmask another, e.g. a
second set iteration on the next line).  Everything else about the file
is left byte-for-byte untouched.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding
from repro.lint.project import dotted_name

#: Codes --fix knows how to repair.
FIXABLE_CODES = frozenset({"DET001", "SIM002", "RES003"})

#: Upper bound on fix/re-lint rounds; each round strictly reduces the
#: fixable-finding count, so this only guards against a misbehaving fix.
MAX_PASSES = 5

_Edit = Tuple[int, int, str]   # (start offset, end offset, replacement)


def _line_offsets(source: str) -> List[int]:
    offsets = [0]
    for line in source.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    return offsets


def _abs_offset(offsets: List[int], lineno: int, col: int) -> int:
    return offsets[lineno - 1] + col


def _node_at(tree: ast.Module, line: int, col: int,
             kinds) -> Optional[ast.AST]:
    """Outermost node of the given kinds at exactly (line, col)."""
    best = None
    best_span = -1
    for node in ast.walk(tree):
        if not isinstance(node, kinds):
            continue
        if getattr(node, "lineno", None) != line \
                or getattr(node, "col_offset", None) != col:
            continue
        end_line = getattr(node, "end_lineno", line)
        end_col = getattr(node, "end_col_offset", col)
        span = (end_line - line) * 10_000 + (end_col - col)
        if span > best_span:
            best, best_span = node, span
    return best


def _det001_edit(source: str, offsets: List[int], tree: ast.Module,
                 finding: Finding) -> Optional[_Edit]:
    node = _node_at(tree, finding.line, finding.col, ast.expr)
    if node is None or node.end_lineno is None:
        return None
    start = _abs_offset(offsets, node.lineno, node.col_offset)
    end = _abs_offset(offsets, node.end_lineno, node.end_col_offset)
    return (start, end, f"sorted({source[start:end]})")


def _sim002_edit(source: str, offsets: List[int], tree: ast.Module,
                 finding: Finding) -> Optional[_Edit]:
    call = _node_at(tree, finding.line, finding.col, ast.Call)
    if call is None:
        return None
    stmt = None
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and node.value is call:
            stmt = node
            break
    if stmt is None or stmt.end_lineno is None:
        # The call is part of a larger expression; wrapping the whole
        # statement would change semantics, so leave it to a human.
        return None
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    lines = source.splitlines(keepends=True)
    start = offsets[stmt.lineno - 1]
    end = offsets[stmt.end_lineno]
    indent = " " * stmt.col_offset
    body = "".join("    " + line for line in lines[stmt.lineno - 1:
                                                   stmt.end_lineno])
    return (start, end, f"{indent}if {dotted} is not None:\n{body}")


def _res003_edit(source: str, offsets: List[int], tree: ast.Module,
                 finding: Finding) -> Optional[_Edit]:
    """Insert the missing disarm before the leaking ``return``.

    The typestate rule hands over the exact repair as a ``fix_hint``
    triple ``("insert_before", line, code)`` -- it only does so when
    the leaking exit is a plain return (exception exits need a
    try/finally, which is a human's call).
    """
    if len(finding.fix_hint) != 3 or finding.fix_hint[0] != "insert_before":
        return None
    _action, line_text, code = finding.fix_hint
    try:
        lineno = int(line_text)
    except ValueError:
        return None
    lines = source.splitlines(keepends=True)
    if not 1 <= lineno <= len(lines):
        return None
    target = lines[lineno - 1]
    indent = target[:len(target) - len(target.lstrip())]
    start = offsets[lineno - 1]
    return (start, start, f"{indent}{code}\n")


_FIXERS = {"DET001": _det001_edit, "SIM002": _sim002_edit,
           "RES003": _res003_edit}


def fix_source(source: str, findings: Sequence[Finding]) -> Tuple[str, int]:
    """Apply every fixable finding to ``source``; (new source, #fixed)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return source, 0
    offsets = _line_offsets(source)
    edits: List[_Edit] = []
    for finding in findings:
        fixer = _FIXERS.get(finding.code)
        if fixer is None:
            continue
        edit = fixer(source, offsets, tree, finding)
        if edit is not None:
            edits.append(edit)
    # Bottom-up, skipping any edit overlapping one already applied.
    edits.sort(key=lambda e: (e[0], e[1]), reverse=True)
    applied = 0
    floor = len(source) + 1
    for start, end, text in edits:
        if end > floor:
            continue
        source = source[:start] + text + source[end:]
        floor = start
        applied += 1
    return source, applied


def fix_paths(paths: Sequence[str],
              select: Optional[Sequence[str]] = None,
              ignore: Optional[Sequence[str]] = None) -> Dict[str, int]:
    """Fix every fixable finding under ``paths`` in place.

    Re-lints after each round until a fixed point (bounded by
    ``MAX_PASSES``); returns path -> number of fixes applied.
    """
    from repro.lint.engine import lint_paths
    fixed: Dict[str, int] = {}
    for _ in range(MAX_PASSES):
        report = lint_paths(paths, select=select, ignore=ignore)
        per_file: Dict[str, List[Finding]] = {}
        for finding in report.findings:
            if finding.code in FIXABLE_CODES:
                per_file.setdefault(finding.path, []).append(finding)
        if not per_file:
            break
        progressed = False
        for path, file_findings in sorted(per_file.items()):
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            new_source, applied = fix_source(source, file_findings)
            if applied:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(new_source)
                fixed[path] = fixed.get(path, 0) + applied
                progressed = True
        if not progressed:
            break
    return fixed


__all__ = ["FIXABLE_CODES", "MAX_PASSES", "fix_paths", "fix_source"]
