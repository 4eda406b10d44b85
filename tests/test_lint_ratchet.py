"""Tests for the lint engine's determinism rules and reporting.

Covers the H2P12x determinism rules, the line range a finding reports,
the deterministic finding order, the SARIF 2.1.0 reporter shape and
the driver's output-format and path handling.

Every rule family gets at least one deliberately-seeded true positive
AND a conforming-code negative.
"""

import json

from repro.lint import Finding, render_sarif
from repro.lint.cli import main as lint_main, normalize_finding_paths
from repro.lint.engine import lint_source
from repro.lint.reporters import (
    JSON_SCHEMA,
    SARIF_SCHEMA_URI,
    SARIF_VERSION,
    render_json,
)


def _codes(source, module="repro.core.sample"):
    findings = lint_source(source, path="<fixture>", module=module)
    return {f.code for f in findings}, findings


# ------------------------------------------------- H2P12x rule family


class TestDeterminismRules:
    def test_h2p121_unseeded_default_rng(self):
        codes, _ = _codes(
            "import numpy as np\n"
            "def jitter():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.normal()\n",
            module="repro.core.sample",
        )
        assert "H2P121" in codes

    def test_h2p121_seeded_rng_clean(self):
        codes, _ = _codes(
            "import numpy as np\n"
            "def jitter(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.normal()\n",
            module="repro.core.sample",
        )
        assert "H2P121" not in codes

    def test_h2p121_global_random_module_calls(self):
        codes, _ = _codes(
            "import random\n"
            "def pick(xs):\n"
            "    return random.choice(xs)\n",
            module="repro.workloads.sample",
        )
        assert "H2P121" in codes

    def test_h2p121_out_of_scope_package_ignored(self):
        codes, _ = _codes(
            "import random\n"
            "def pick(xs):\n"
            "    return random.choice(xs)\n",
            module="repro.viz.sample",
        )
        assert "H2P121" not in codes

    def test_h2p122_global_statement_write(self):
        codes, findings = _codes(
            "_CACHE = {}\n"
            "_MODE = 'idle'\n"
            "def set_mode(mode):\n"
            "    global _MODE\n"
            "    _MODE = mode\n",
            module="repro.runtime.sample",
        )
        assert "H2P122" in codes

    def test_h2p122_mutator_call_on_module_global(self):
        codes, _ = _codes(
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n",
            module="repro.core.sample",
        )
        assert "H2P122" in codes

    def test_h2p122_local_shadow_not_flagged(self):
        codes, _ = _codes(
            "_CACHE = {}\n"
            "def pure(key, value):\n"
            "    _CACHE = {}\n"
            "    _CACHE[key] = value\n"
            "    return _CACHE\n",
            module="repro.core.sample",
        )
        assert "H2P122" not in codes

    def test_h2p122_read_only_access_clean(self):
        codes, _ = _codes(
            "_DEFAULTS = {'mode': 'pipelined'}\n"
            "def mode():\n"
            "    return _DEFAULTS['mode']\n",
            module="repro.runtime.sample",
        )
        assert "H2P122" not in codes


# ------------------------------------------------------- finding range


class TestFindingRange:
    def test_wrapped_expression_spans_its_lines(self):
        findings = lint_source(
            "def idle(makespan_ms):\n"
            "    return (makespan_ms\n"
            "            == 0.0)\n",
            path="<fixture>",
            module="repro.core.sample",
        )
        (finding,) = [f for f in findings if f.code == "H2P102"]
        assert (finding.line, finding.end_line) == (2, 3)
        assert finding.to_dict()["end_line"] == 3

    def test_block_finding_collapses_to_its_header(self):
        # H2P104 anchors at the def; its range must not span the body.
        findings = lint_source(
            "def makespan() -> float:\n"
            "    total = 0.0\n"
            "    return total\n",
            path="<fixture>",
            module="repro.core.sample",
        )
        (finding,) = [f for f in findings if f.code == "H2P104"]
        assert finding.line == finding.end_line == 1


# --------------------------------------------------- deterministic sort


class TestDeterministicOrder:
    def test_sort_key_orders_path_line_col_code(self):
        findings = [
            Finding(code="H2P121", message="m", path="b.py", line=1),
            Finding(code="H2P102", message="m", path="a.py", line=9),
            Finding(code="H2P102", message="m", path="a.py", line=2, col=4),
            Finding(code="H2P101", message="m", path="a.py", line=2, col=4),
        ]
        ordered = sorted(findings, key=Finding.sort_key)
        assert [(f.path, f.line, f.col, f.code) for f in ordered] == [
            ("a.py", 2, 4, "H2P101"),
            ("a.py", 2, 4, "H2P102"),
            ("a.py", 9, 0, "H2P102"),
            ("b.py", 1, 0, "H2P121"),
        ]

    def test_lint_paths_output_is_sorted(self, tmp_path):
        root = tmp_path / "src"
        pkg = root / "repro" / "runtime"
        pkg.mkdir(parents=True)
        (pkg / "zz.py").write_text(
            "import time\n\ndef now():\n    return time.time()\n"
        )
        (pkg / "aa.py").write_text(
            "import time\n\ndef now():\n    return time.time()\n"
        )
        from repro.lint import lint_paths

        findings = lint_paths([root], src_root=root)
        keys = [Finding.sort_key(f) for f in findings]
        assert keys == sorted(keys)


# ------------------------------------------------------------- SARIF


class TestSarifReporter:
    def _findings(self):
        return [
            Finding(
                code="H2P102",
                message="float literal compared with '=='",
                path="src/repro/core/x.py",
                line=12,
                col=4,
                end_line=13,
            ),
            Finding(
                code="H2P000",
                message="syntax error: bad",
                path="src/repro/core/y.py",
                line=1,
            ),
        ]

    def test_sarif_document_shape(self):
        doc = json.loads(render_sarif(self._findings()))
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA_URI
        assert len(doc["runs"]) == 1
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "hetero2pipe-lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert set(rule_ids) == {"H2P102", "H2P000"}
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]

    def test_sarif_results_reference_rule_table(self):
        doc = json.loads(render_sarif(self._findings()))
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            assert result["level"] == "error"
            assert result["message"]["text"]

    def test_sarif_columns_are_one_based(self):
        doc = json.loads(render_sarif(self._findings()))
        result = doc["runs"][0]["results"][0]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 12
        assert region["startColumn"] == 5  # engine col 4 -> SARIF 5
        assert region["endLine"] == 13
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/core/x.py"

    def test_sarif_empty_findings_still_valid_shape(self):
        doc = json.loads(render_sarif([]))
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"] == []

    def test_json_schema_marker(self):
        doc = json.loads(render_json([]))
        assert doc["schema"] == JSON_SCHEMA == "hetero2pipe.lint.v1"
        assert sorted(doc) == ["counts", "findings", "schema", "total"]


# ------------------------------------------------------------ CLI


class TestCliRatchet:
    def _seed_tree(self, tmp_path):
        root = tmp_path / "src"
        pkg = root / "repro" / "runtime"
        pkg.mkdir(parents=True)
        (pkg / "clocked.py").write_text(
            "import time\n\ndef now():\n    return time.time()\n"
        )
        return root

    def test_format_sarif_emits_valid_document(self, tmp_path, capsys):
        root = self._seed_tree(tmp_path)
        assert (
            lint_main([str(root), "--src-root", str(root), "--format", "sarif"])
            == 1
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]

    def test_json_format_conflict_rejected(self, tmp_path):
        root = self._seed_tree(tmp_path)
        assert (
            lint_main(
                [str(root), "--src-root", str(root), "--json", "--format", "text"]
            )
            == 2
        )

    def test_normalize_finding_paths(self, tmp_path, monkeypatch):
        inside = Finding(
            code="H2P101",
            message="m",
            path=str(tmp_path / "src" / "x.py"),
            line=1,
        )
        outside = Finding(code="H2P101", message="m", path="/elsewhere/y.py", line=1)
        relative = Finding(code="H2P101", message="m", path="lib/z.py", line=1)
        monkeypatch.chdir(tmp_path)
        normalized = normalize_finding_paths([inside, outside, relative])
        assert [f.path for f in normalized] == [
            "src/x.py",
            "/elsewhere/y.py",
            "lib/z.py",
        ]
