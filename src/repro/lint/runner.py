"""Lint orchestration: collect files, run rules, filter, render.

``lint_paths`` is the library entry point; ``main`` backs both
``python -m repro.lint`` and the ``repro-place lint`` subcommand.  Exit
codes: 0 clean, 1 non-baselined findings (or syntax/read failures),
2 usage errors (argparse).

The run is one serial pass: every file is parsed once, the cross-file
``ReproError`` closure is built from those trees, and the selected
rules then run over each parsed file.  A cold pass over ``src/repro``
takes a few seconds, so there is no cache and no process pool.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .core import Baseline, FileContext, Finding, ProjectContext, \
    collect_error_classes
from .registry import all_rules

#: name of the checked-in baseline file, looked up from the lint root
#: upward so the tool works from any working directory.
BASELINE_NAME = "lint-baseline.json"

#: v3 drops v2's ``cache`` and ``jobs`` keys; consumers that only read
#: ``findings``/``counts``/``ok`` are unaffected.
JSON_SCHEMA_VERSION = 3


@dataclass
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: non-suppressed findings before baseline filtering.
        fresh: findings not covered by the baseline — the gate set.
        files: number of files analysed.
        errors: unparsable/unreadable files (path, reason).
    """

    findings: list[Finding] = field(default_factory=list)
    fresh: list[Finding] = field(default_factory=list)
    files: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.fresh and not self.errors

    def to_dict(self) -> dict[str, object]:
        counts: dict[str, int] = {}
        for finding in self.fresh:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "version": JSON_SCHEMA_VERSION,
            "files": self.files,
            "findings": [f.to_dict() for f in self.fresh],
            "baselined": len(self.findings) - len(self.fresh),
            "counts": counts,
            "errors": [{"path": p, "reason": r} for p, r in self.errors],
            "ok": self.ok,
        }


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Python files under the given paths, sorted for stable output."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _relpath(path: Path, roots: Sequence[Path]) -> str:
    """Path relative to the enclosing root (or package-anchored).

    Rules scope themselves with paths like ``repro/place/...``; anchor
    on the ``repro`` package directory whenever it appears so scoping
    works no matter where the tree is checked out.
    """
    resolved = path.resolve()
    parts = resolved.parts
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[anchor:])
    for root in roots:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            continue
    return path.as_posix()


def lint_paths(paths: Sequence[Path], *,
               baseline: Baseline | None = None,
               select: Iterable[str] | None = None,
               ignore: Iterable[str] | None = None) -> LintResult:
    """Run every registered rule over the Python files under ``paths``.

    Args:
        paths: files or directories to analyse.
        baseline: historical findings to tolerate; None = gate on all.
        select: restrict to these rule ids.
        ignore: drop these rule ids.
    """
    roots = [Path(p) for p in paths]
    files = collect_files(roots)
    result = LintResult(files=len(files))

    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()
    rules = [r for r in all_rules()
             if (selected is None or r.id in selected)
             and r.id not in ignored]

    # every context shares one project; its error closure is filled in
    # from the parsed trees before any rule reads it
    project = ProjectContext()
    contexts: list[FileContext] = []
    for path in files:
        try:
            contexts.append(FileContext(path, _relpath(path, roots),
                                        path.read_text(), project))
        except (OSError, SyntaxError, ValueError) as exc:
            result.errors.append((path.as_posix(), str(exc)))
    project.repro_error_classes = collect_error_classes(
        ctx.tree for ctx in contexts)

    for ctx in contexts:
        for rule in rules:
            for finding in rule.check(ctx):
                if not ctx.suppressions.active(rule.id, finding.line,
                                               ctx.lines):
                    result.findings.append(finding)

    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    result.errors.sort()
    result.fresh = baseline.filter(result.findings) if baseline \
        else list(result.findings)
    return result


def find_baseline(start: Path) -> Path | None:
    """Locate the checked-in baseline by walking up from ``start``."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in [probe, *probe.parents]:
        baseline = candidate / BASELINE_NAME
        if baseline.is_file():
            return baseline
    return None


def _default_target() -> Path:
    """``src/repro`` when run from a checkout, else the installed pkg."""
    checkout = Path("src/repro")
    if checkout.is_dir():
        return checkout
    return Path(__file__).resolve().parent.parent


def render_text(result: LintResult, *, baselined: int = 0) -> str:
    lines = [f.render() for f in result.fresh]
    for path, reason in result.errors:
        lines.append(f"{path}: analysis failed: {reason}")
    lines.append(f"{len(result.fresh)} finding(s) in {result.files} "
                 f"file(s)"
                 + (f" ({baselined} baselined)" if baselined else ""))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-place lint",
        description="contract-enforcing static analysis for src/repro")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files/directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline file (default: lint-baseline.json "
                             "found upward from the lint root)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with current findings")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids to run")
    parser.add_argument("--ignore", default=None,
                        help="comma-separated rule ids to skip")
    parser.add_argument("--rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--explain", metavar="RULE", default=None,
                        help="print one rule's full documentation")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point shared by ``python -m repro.lint`` and the
    ``repro-place lint`` subcommand."""
    args = build_parser().parse_args(
        list(argv) if argv is not None else None)

    if args.rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.summary}")
        return 0
    if args.explain:
        from .registry import get_rule
        rule = get_rule(args.explain)
        if rule is None:
            print(f"unknown rule {args.explain!r}", file=sys.stderr)
            return 1
        print(rule.doc())
        return 0

    paths = args.paths or [_default_target()]
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        baseline_path = find_baseline(Path(paths[0]))
    baseline = None
    if baseline_path is not None and not args.no_baseline \
            and not args.update_baseline and baseline_path.is_file():
        baseline = Baseline.load(baseline_path)

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    result = lint_paths(paths, baseline=baseline, select=select,
                        ignore=ignore)

    if args.update_baseline:
        target = baseline_path or Path(paths[0]) / ".." / BASELINE_NAME
        Baseline.from_findings(result.findings).save(Path(target))
        print(f"baseline updated: {len(result.findings)} entr(y/ies) "
              f"-> {target}")
        return 0

    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        baselined = len(result.findings) - len(result.fresh)
        print(render_text(result, baselined=baselined))
    return 0 if result.ok else 1
