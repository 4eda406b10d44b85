"""Lint driver shared by ``hetero2pipe lint`` and ``python -m repro.lint``.

Exit codes: 0 clean, 1 findings, 2 usage error.  A run that would check
nothing (no rule selected, or no Python file to lint) is a usage error,
never a clean pass.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import Finding, all_rules, get_rule, iter_python_files, lint_paths
from .reporters import exit_code, render_json, render_sarif, render_text


def default_src_root() -> Path:
    """The ``src/`` directory this installation was imported from."""
    # .../src/repro/lint/cli.py -> .../src
    return Path(__file__).resolve().parents[2]


def normalize_finding_paths(findings: Sequence[Finding]) -> List[Finding]:
    """Relativize absolute finding paths against the working directory.

    Keeps reports and SARIF artifacts portable between machines: the
    default lint paths are absolute (they come from the installed
    package location), but CI annotations need ``src/repro/...``.
    Relative paths and paths outside it pass through untouched.
    """
    root = Path.cwd().resolve()
    normalized: List[Finding] = []
    for finding in findings:
        path = Path(finding.path)
        if path.is_absolute():
            try:
                rel = path.resolve().relative_to(root)
            except ValueError:
                normalized.append(finding)
                continue
            normalized.append(
                Finding(
                    code=finding.code,
                    message=finding.message,
                    path=rel.as_posix(),
                    line=finding.line,
                    col=finding.col,
                    end_line=finding.end_line,
                )
            )
        else:
            normalized.append(finding)
    return normalized


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags (shared with the hetero2pipe subcommand)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default=None,
        help="output format (default: text; json is the stable "
        "hetero2pipe.lint.v1 schema, sarif is SARIF 2.1.0 for GitHub "
        "code scanning)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--rules",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--src-root",
        metavar="DIR",
        help="source root for module-name resolution (default: the "
        "installed src/ directory)",
    )


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"        {rule.rationale}")
        return 0

    output_format = args.format or ("json" if args.json else "text")
    if args.format and args.json and args.format != "json":
        return _usage_error("--json conflicts with --format " + args.format)

    rules = None
    if args.rules is not None:
        try:
            rules = [get_rule(c.strip()) for c in args.rules.split(",") if c.strip()]
        except KeyError as error:
            return _usage_error(error.args[0])
        if not rules:
            return _usage_error(f"--rules {args.rules!r} names no rule code")

    src_root = Path(args.src_root) if args.src_root else default_src_root()
    if not src_root.is_dir():
        return _usage_error(f"--src-root {src_root}: no such directory")
    paths = [Path(p) for p in args.paths] or [src_root / "repro"]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        return _usage_error(f"no such path(s): {', '.join(missing)}")
    if next(iter_python_files(paths), None) is None:
        return _usage_error(
            f"no Python file to lint under {', '.join(map(str, paths))}"
        )

    findings = normalize_finding_paths(
        lint_paths(paths, src_root=src_root, rules=rules)
    )
    findings.sort(key=Finding.sort_key)

    if output_format == "json":
        print(render_json(findings))
    elif output_format == "sarif":
        print(render_sarif(findings))
    else:
        print(render_text(findings))
    return exit_code(findings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Hetero2Pipe static analysis: AST rules, determinism "
        "rules, import layering.",
    )
    add_lint_arguments(parser)
    return run_lint_command(parser.parse_args(argv))


__all__: List[str] = [
    "add_lint_arguments",
    "normalize_finding_paths",
    "run_lint_command",
    "default_src_root",
    "main",
]
