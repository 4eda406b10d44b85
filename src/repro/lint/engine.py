"""AST rule engine: rule registry, file walking, findings.

A rule is a subclass of :class:`LintRule` registered via
:func:`register_rule`.  The engine parses each ``.py`` file once, hands
the tree to every enabled rule and reports every finding it gets back;
there is no per-line suppression, so a finding is fixed, not hidden.

Design notes:

* rules are pure functions of ``(tree, context)`` — no global state, so
  the engine can lint fixture trees in tests without touching disk;
* the *relative module path* is computed against a configurable source
  root, which lets tests lint synthetic package layouts under a tmp
  directory (the layering rule needs real-looking module names);
* findings are sorted by ``(path, line, col, code)`` before reporting,
  so CI output is stable across filesystem walk order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``end_line`` is the last physical line of the offending construct
    (0 means "same as line"); the JSON and SARIF reports carry it, so a
    wrapped expression is reported over every line it spans.
    """

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    end_line: int = 0

    @property
    def last_line(self) -> int:
        return self.end_line if self.end_line >= self.line else self.line

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.last_line,
        }


@dataclass(frozen=True)
class LintContext:
    """Everything a rule may consult besides the tree itself.

    Attributes:
        path: File path as reported in findings.
        module: Dotted module name relative to the source root
            (``repro.runtime.metrics``); empty when the file lies
            outside the root.
    """

    path: str
    module: str

    @property
    def package_parts(self) -> Sequence[str]:
        """Module path split on dots (``("repro", "runtime", "metrics")``)."""
        return tuple(self.module.split(".")) if self.module else ()


#: Compound statements whose ``end_lineno`` spans their whole body; a
#: finding anchored at one is about its header, so its reported range
#: collapses to the header line.
_BLOCK_NODES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


class LintRule:
    """Base class for AST rules.

    Subclasses set :attr:`code`, :attr:`name` and :attr:`rationale`
    (shown by ``--list-rules`` and the docs) and implement
    :meth:`check`.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        if isinstance(node, _BLOCK_NODES):
            end_line = line
        else:
            end_line = getattr(node, "end_lineno", None) or line
        return Finding(
            code=self.code,
            message=message,
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            end_line=end_line,
        )


#: code -> rule instance, in registration order.
RULE_REGISTRY: Dict[str, LintRule] = {}


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator: instantiate and register a rule by its code."""
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if rule.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code!r}")
    RULE_REGISTRY[rule.code] = rule
    return cls


def all_rules() -> List[LintRule]:
    return list(RULE_REGISTRY.values())


def get_rule(code: str) -> LintRule:
    try:
        return RULE_REGISTRY[code]
    except KeyError:
        raise KeyError(
            f"unknown rule {code!r}; known: {sorted(RULE_REGISTRY)}"
        ) from None


# ------------------------------------------------------------------ driving


def module_name_for(path: Path, src_root: Path) -> str:
    """Dotted module name of ``path`` under ``src_root``.

    ``src_root/repro/runtime/metrics.py`` -> ``repro.runtime.metrics``;
    package ``__init__.py`` files map to the package itself.  A file
    outside ``src_root`` is named from its nearest ``repro`` ancestor
    directory, so the package-scoped rules still see it; ``''`` if it
    has none.
    """
    resolved = path.resolve()
    try:
        rel = resolved.relative_to(src_root.resolve())
    except ValueError:
        anchor = next((p for p in resolved.parents if p.name == "repro"), None)
        if anchor is None:
            return ""
        rel = resolved.relative_to(anchor.parent)
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def lint_source(
    source: str,
    path: str,
    module: str,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint one in-memory source string (the test-friendly core)."""
    active = list(rules) if rules is not None else all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                code="H2P000",
                message=f"syntax error: {error.msg}",
                path=path,
                line=error.lineno or 1,
                col=error.offset or 0,
            )
        ]
    ctx = LintContext(path=path, module=module)
    findings: List[Finding] = []
    for rule in active:
        findings.extend(rule.check(tree, ctx))
    findings.sort(key=Finding.sort_key)
    return findings


def lint_file(
    path: Path,
    src_root: Path,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint one file on disk."""
    source = path.read_text(encoding="utf-8")
    return lint_source(
        source,
        path=str(path),
        module=module_name_for(path, src_root),
        rules=rules,
    )


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, deduplicated .py list."""
    seen = set()
    collected: List[Path] = []
    for p in paths:
        if p.is_dir():
            collected.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            collected.append(p)
    for p in collected:
        key = p.resolve()
        if key not in seen:
            seen.add(key)
            yield p


def lint_paths(
    paths: Sequence[Path],
    src_root: Path,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``.

    Findings come back sorted by ``(path, line, col, code)`` regardless
    of filesystem walk order — the stability contract CI output relies
    on.
    """
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, src_root, rules))
    findings.sort(key=Finding.sort_key)
    return findings
