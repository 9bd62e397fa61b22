"""Shared data model for the lint pass.

:class:`Finding` is one diagnosed contract violation.  :class:`FileContext`
wraps a parsed source file with the helpers every rule needs: dotted-name
resolution through the file's import aliases, parent links, and the
per-line suppression table.  :class:`ProjectContext` carries the
cross-file facts (today: the transitive :class:`~repro.errors.ReproError`
subclass closure) collected in a pre-pass over the whole fileset.
:class:`Baseline` matches findings against the checked-in baseline file
so CI can gate at zero *new* findings while historical ones burn down.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from .cfg import CFG, build_cfg

#: Inline suppression syntax, e.g. ``# repro-lint: disable=NUM01`` or
#: ``# repro-lint: disable=DET01,DET03 -- reason``.
_SUPPRESS_RE = re.compile(
    r"#.*?\brepro-lint:\s*disable="
    r"([A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)")


@dataclass(frozen=True)
class Finding:
    """One contract violation at a concrete source location.

    Attributes:
        rule: rule identifier, e.g. ``DET01``.
        path: path as reported (relative to the lint root when possible).
        line: 1-based source line.
        col: 0-based column.
        message: human-readable diagnosis with the expected fix.
        line_text: stripped source line — the baseline matching key, so
            entries survive unrelated line-number drift.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    line_text: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Suppressions:
    """Per-line ``# repro-lint: disable=RULE`` table for one file.

    A suppression on the finding's own line or on a standalone comment
    line directly above it silences the rule (long statements wrap, so
    the line above is often the only place the comment fits).
    """

    def __init__(self, lines: list[str]) -> None:
        self.by_line: dict[int, set[str]] = {}
        for lineno, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                rules = {r.strip() for r in match.group(1).split(",")}
                self.by_line[lineno] = rules

    def active(self, rule: str, line: int, lines: list[str]) -> bool:
        """True when ``rule`` is suppressed at ``line``."""
        if rule in self.by_line.get(line, ()):
            return True
        above = self.by_line.get(line - 1)
        if above and rule in above:
            # only honour the line above when it is a comment-only line;
            # a trailing suppression belongs to its own statement
            text = lines[line - 2].strip() if line >= 2 else ""
            return text.startswith("#")
        return False


@dataclass
class ProjectContext:
    """Cross-file facts shared by every rule invocation.

    Attributes:
        repro_error_classes: names of every class in the fileset that
            (transitively) subclasses ``ReproError``, plus ``ReproError``
            itself — computed by :func:`collect_error_classes`.
    """

    repro_error_classes: set[str] = field(default_factory=set)


class FileContext:
    """One parsed source file plus the helpers rules share.

    Attributes:
        path: filesystem path of the file.
        relpath: path relative to the lint root, ``/``-separated — rules
            scope themselves with this (e.g. NUM01 applies under
            ``repro/place/``).
        tree: parsed AST with parent links (``node._repro_parent``).
        lines: raw source lines.
        project: cross-file facts.
    """

    def __init__(self, path: Path, relpath: str, source: str,
                 project: ProjectContext | None = None) -> None:
        self.path = path
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.project = project or ProjectContext()
        self.suppressions = Suppressions(self.lines)
        self._aliases = _import_aliases(self.tree)
        self._cfgs: dict[ast.AST, CFG] = {}
        _link_parents(self.tree)

    # -- helpers rules build on ----------------------------------------
    def dotted(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a canonical dotted name.

        Import aliases expand (``np.random.rand`` -> ``numpy.random.rand``,
        ``from time import perf_counter`` makes ``perf_counter`` ->
        ``time.perf_counter``).  Chains rooted at ordinary variables
        resolve to None — the rules only reason about names they can
        trace to a module.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._aliases.get(node.id)
        if root is None:
            if parts:
                return None  # attribute on a plain variable
            root = node.id  # bare builtin / local name
        parts.append(root)
        return ".".join(reversed(parts))

    def parent(self, node: ast.AST) -> ast.AST | None:
        return getattr(node, "_repro_parent", None)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = self.lines[line - 1].strip() if 0 < line <= len(self.lines) \
            else ""
        return Finding(rule=rule, path=self.relpath, line=line, col=col,
                       message=message, line_text=text)

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def functions(self) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Every function/method in the file (including nested ones)."""
        for node in self.walk():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def cfg(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
        """Memoized control-flow graph of one function body.

        Flow-aware rules opt in through this helper; the memo means a
        file visited by all three flow families builds each CFG once.
        """
        cached = self._cfgs.get(func)
        if cached is None:
            cached = build_cfg(func)
            self._cfgs[func] = cached
        return cached


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the canonical dotted module/object they bind.

    Function-scoped imports are treated as file-global — a sound
    over-approximation for lint purposes (the placer imports scipy
    solvers lazily inside methods).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def _link_parents(tree: ast.AST) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._repro_parent = parent  # type: ignore[attr-defined]


def collect_error_classes(trees: Iterable[ast.AST]) -> set[str]:
    """Transitive subclass closure of ``ReproError`` across a fileset.

    Purely syntactic: a class is in the closure when any base name's last
    segment is already in the closure.  Iterates to a fixed point so
    grandchildren defined before their parents still resolve.
    """
    edges: list[tuple[str, set[str]]] = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {base.attr if isinstance(base, ast.Attribute)
                         else base.id for base in node.bases
                         if isinstance(base, (ast.Attribute, ast.Name))}
                edges.append((node.name, bases))
    closure = {"ReproError"}
    changed = True
    while changed:
        changed = False
        for name, bases in edges:
            if name not in closure and bases & closure:
                closure.add(name)
                changed = True
    return closure


class Baseline:
    """Checked-in ledger of historical findings CI tolerates.

    Entries match on ``(rule, path, stripped line text)`` so unrelated
    edits shifting line numbers do not invalidate the baseline; duplicate
    violations on identical lines consume one entry each.
    """

    VERSION = 1

    def __init__(self, entries: list[dict[str, str]] | None = None) -> None:
        self.entries = entries or []

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text())
        return cls(list(data.get("findings", [])))

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        entries = [{"rule": f.rule, "path": f.path, "line_text": f.line_text}
                   for f in findings]
        entries.sort(key=lambda e: (e["path"], e["rule"], e["line_text"]))
        return cls(entries)

    def save(self, path: Path) -> None:
        payload = {"version": self.VERSION, "findings": self.entries}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def filter(self, findings: list[Finding]) -> list[Finding]:
        """Findings not covered by the baseline (the CI gate set)."""
        budget: dict[tuple[str, str, str], int] = {}
        for entry in self.entries:
            key = (entry.get("rule", ""), entry.get("path", ""),
                   entry.get("line_text", ""))
            budget[key] = budget.get(key, 0) + 1
        fresh: list[Finding] = []
        for finding in findings:
            key = (finding.rule, finding.path, finding.line_text)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
            else:
                fresh.append(finding)
        return fresh
