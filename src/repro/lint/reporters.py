"""Finding reporters: human text, machine JSON, and SARIF 2.1.0.

Text mimics the compiler convention (``path:line:col: CODE message``)
so editors and CI annotations pick locations up for free; JSON carries
the same fields plus a summary block under the stable
``hetero2pipe.lint.v1`` schema (matching the other CLI verbs); SARIF
2.1.0 lets GitHub code scanning render findings as inline annotations.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Sequence

from .engine import RULE_REGISTRY, Finding

#: SARIF constants — the shape tests assert against.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
JSON_SCHEMA = "hetero2pipe.lint.v1"

#: Engine-level codes without a registry entry, for the SARIF rule table.
_SYNTHETIC_RULES: Dict[str, str] = {
    "H2P000": "file fails to parse (syntax error)",
}


def render_text(findings: Sequence[Finding]) -> str:
    """One finding per line plus a per-code summary footer."""
    if not findings:
        return "lint: clean (0 findings)"
    lines = [str(f) for f in findings]
    counts = Counter(f.code for f in findings)
    summary = ", ".join(f"{code}: {n}" for code, n in sorted(counts.items()))
    lines.append(f"lint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Stable ``hetero2pipe.lint.v1`` document."""
    counts: Dict[str, int] = dict(
        sorted(Counter(f.code for f in findings).items())
    )
    document: Dict[str, object] = {
        "schema": JSON_SCHEMA,
        "findings": [f.to_dict() for f in findings],
        "counts": counts,
        "total": len(findings),
    }
    return json.dumps(document, indent=2, sort_keys=True)


def _rule_table(codes: Sequence[str]) -> List[Dict[str, object]]:
    """SARIF ``tool.driver.rules`` for every code that appears."""
    table: List[Dict[str, object]] = []
    for code in sorted(set(codes)):
        rule = RULE_REGISTRY.get(code)
        if rule is not None:
            description = rule.rationale or rule.name
            name = rule.name
        else:
            description = _SYNTHETIC_RULES.get(code, "engine-level finding")
            name = code
        table.append(
            {
                "id": code,
                "name": name,
                "shortDescription": {"text": description},
            }
        )
    return table


def render_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 document (GitHub code-scanning compatible).

    SARIF columns are 1-based where the engine's are 0-based.
    """
    codes = [f.code for f in findings]
    rules = _rule_table(codes)
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    results: List[Dict[str, object]] = []
    for f in findings:
        results.append(
            {
                "ruleId": f.code,
                "ruleIndex": rule_index[f.code],
                "level": "error",
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.path},
                            "region": {
                                "startLine": max(1, f.line),
                                "startColumn": f.col + 1,
                                "endLine": max(1, f.last_line),
                            },
                        }
                    }
                ],
            }
        )
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "hetero2pipe-lint",
                        "informationUri": (
                            "https://github.com/hetero2pipe/repro"
                            "/blob/main/docs/STATIC_ANALYSIS.md"
                        ),
                        "version": "1.0.0",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def exit_code(findings: Sequence[Finding]) -> int:
    """0 clean, 1 findings — the contract CI relies on."""
    return 1 if findings else 0


__all__: List[str] = [
    "JSON_SCHEMA",
    "SARIF_SCHEMA_URI",
    "SARIF_VERSION",
    "exit_code",
    "render_json",
    "render_sarif",
    "render_text",
]
