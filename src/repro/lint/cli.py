"""Lint driver shared by ``hetero2pipe lint`` and ``python -m repro.lint``.

Exit codes: 0 clean (or every finding baselined), 1 findings (new
findings under a baseline, or a stale baseline needing regeneration),
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .baseline import apply_baseline, load_baseline, write_baseline
from .engine import Finding, all_rules, get_rule, lint_paths
from .reporters import exit_code, render_json, render_sarif, render_text


def default_src_root() -> Path:
    """The ``src/`` directory this installation was imported from."""
    # .../src/repro/lint/cli.py -> .../src
    return Path(__file__).resolve().parents[2]


def normalize_finding_paths(
    findings: Sequence[Finding], base: Optional[Path] = None
) -> List[Finding]:
    """Relativize absolute finding paths against ``base`` (default cwd).

    Keeps reports, baselines and SARIF artifacts portable between
    machines: the default lint paths are absolute (they come from the
    installed package location), but CI and baseline diffs need
    ``src/repro/...``. Paths outside ``base`` and virtual paths
    (``plan://...``) pass through untouched.
    """
    root = (base or Path.cwd()).resolve()
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
        "--plans",
        action="store_true",
        help="also sweep plan invariants over zoo x SoC x config "
        "(slower; runs the planner)",
    )
    parser.add_argument(
        "--src-root",
        metavar="DIR",
        help="source root for module-name resolution (default: the "
        "installed src/ directory)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="ratchet mode: tolerate findings recorded in FILE, fail on "
        "new ones and on stale entries (see docs/STATIC_ANALYSIS.md)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="regenerate --baseline FILE from the current findings and "
        "exit 0",
    )


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"        {rule.rationale}")
        return 0

    output_format = args.format or ("json" if args.json else "text")
    if args.format and args.json and args.format != "json":
        print("--json conflicts with --format " + args.format, file=sys.stderr)
        return 2
    if args.update_baseline and not args.baseline:
        print("--update-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    rules = None
    if args.rules:
        try:
            rules = [get_rule(c.strip()) for c in args.rules.split(",") if c.strip()]
        except KeyError as error:
            print(str(error), file=sys.stderr)
            return 2

    src_root = Path(args.src_root) if args.src_root else default_src_root()
    if args.paths:
        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(f"no such path(s): {missing}", file=sys.stderr)
            return 2
    else:
        paths = [src_root / "repro"]

    findings = lint_paths(paths, src_root=src_root, rules=rules)

    checked = 0
    if args.plans:
        from .plan_invariants import sweep_plan_invariants

        plan_findings, checked = sweep_plan_invariants()
        findings = findings + plan_findings

    findings = normalize_finding_paths(findings)
    findings.sort(key=Finding.sort_key)

    if args.update_baseline:
        entries = write_baseline(Path(args.baseline), findings)
        print(
            f"baseline: wrote {entries} entrie(s) covering "
            f"{len(findings)} finding(s) to {args.baseline}"
        )
        return 0

    baseline_summary = None
    status: Optional[int] = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"no such baseline file: {args.baseline}", file=sys.stderr)
            return 2
        try:
            tolerated = load_baseline(baseline_path)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        result = apply_baseline(findings, tolerated)
        baseline_summary = result.summary()
        findings = result.new
        status = 0 if result.ok else 1

    if output_format == "json":
        print(render_json(findings, baseline=baseline_summary))
    elif output_format == "sarif":
        print(render_sarif(findings))
    else:
        print(render_text(findings))
        if args.plans:
            print(f"plan invariants: {checked} plan(s) validated")
        if baseline_summary is not None:
            print(
                f"baseline: {baseline_summary['matched']} tolerated, "
                f"{baseline_summary['new']} new, "
                f"{len(baseline_summary['stale'])} stale"  # type: ignore[arg-type]
            )
            for entry in baseline_summary["stale"]:  # type: ignore[union-attr]
                print(
                    f"  stale: {entry['path']}: {entry['code']} "
                    f"{entry['message']} (x{entry['count']})"
                )
            if baseline_summary["stale"]:
                print(
                    "  the baseline shrank without being regenerated; "
                    "run with --update-baseline to re-record it"
                )
    if status is not None:
        return status
    return exit_code(findings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Hetero2Pipe static analysis: AST rules, determinism "
        "rules, import layering, plan invariants.",
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
