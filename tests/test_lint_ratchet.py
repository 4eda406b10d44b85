"""Tests for the lint engine's reporting and ratchet machinery.

Covers the H2P12x determinism rules, the H2P109 unused-pragma check
with its edge cases, the deterministic finding order, the SARIF 2.1.0
reporter shape, and the baseline ratchet (tolerate / new / stale /
regenerate).

Every rule family gets at least one deliberately-seeded true positive
AND a conforming-code negative.
"""

import json
from pathlib import Path

import pytest

from repro.lint import (
    BASELINE_SCHEMA,
    Finding,
    apply_baseline,
    collect_pragmas,
    load_baseline,
    render_sarif,
    write_baseline,
)
from repro.lint.baseline import BaselineResult, baseline_key
from repro.lint.cli import main as lint_main, normalize_finding_paths
from repro.lint.engine import UNUSED_SUPPRESSION_CODE, lint_source
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


# --------------------------------------------------- pragma edge cases


class TestPragmaEdgeCases:
    BAD_RANDOM = (
        "import random\n"
        "def pick(xs):\n"
        "    return random.choice(xs)  {pragma}\n"
    )

    def test_disable_all_suppresses_everything(self):
        findings = lint_source(
            self.BAD_RANDOM.format(pragma="# lint: disable=all"),
            path="<fixture>",
            module="repro.workloads.sample",
        )
        assert not any(f.code == "H2P121" for f in findings)
        # The pragma matched a real finding: no H2P109 either.
        assert not any(
            f.code == UNUSED_SUPPRESSION_CODE for f in findings
        )

    def test_comma_separated_codes(self):
        findings = lint_source(
            self.BAD_RANDOM.format(pragma="# lint: disable=H2P121,H2P122"),
            path="<fixture>",
            module="repro.workloads.sample",
        )
        assert not any(f.code == "H2P121" for f in findings)
        # H2P122 matched nothing on that line -> unused-code finding.
        unused = [f for f in findings if f.code == UNUSED_SUPPRESSION_CODE]
        assert len(unused) == 1
        assert "H2P122" in unused[0].message

    def test_space_separated_codes(self):
        pragmas = collect_pragmas("x = 1  # lint: disable=H2P101 H2P121\n")
        assert len(pragmas) == 1
        assert pragmas[0].codes == ("H2P101", "H2P121")
        assert pragmas[0].malformed == ()

    def test_malformed_pragma_reported(self):
        findings = lint_source(
            "x = 1  # lint: disable=not-a-code!\n",
            path="<fixture>",
            module="repro.core.sample",
        )
        malformed = [
            f for f in findings if f.code == UNUSED_SUPPRESSION_CODE
        ]
        assert len(malformed) == 1
        assert "malformed" in malformed[0].message

    def test_empty_disable_list_is_malformed(self):
        findings = lint_source(
            "x = 1  # lint: disable=\n",
            path="<fixture>",
            module="repro.core.sample",
        )
        assert any(
            f.code == UNUSED_SUPPRESSION_CODE and "malformed" in f.message
            for f in findings
        )

    def test_pragma_in_docstring_is_inert(self):
        findings = lint_source(
            '"""Docs mention # lint: disable=H2P101 as an example."""\n'
            "x = 1\n",
            path="<fixture>",
            module="repro.core.sample",
        )
        assert not any(
            f.code == UNUSED_SUPPRESSION_CODE for f in findings
        )

    def test_pragma_on_continuation_line(self):
        # The finding spans the whole wrapped statement; a pragma on
        # the continuation line must still suppress it.
        source = (
            "def idle(makespan_ms):\n"
            "    return (makespan_ms\n"
            "            == 0.0)  # lint: disable=H2P102\n"
        )
        findings = lint_source(
            source, path="<fixture>", module="repro.core.sample"
        )
        assert not any(f.code == "H2P102" for f in findings)
        assert not any(
            f.code == UNUSED_SUPPRESSION_CODE for f in findings
        )

    def test_unused_pragma_flags_h2p109(self):
        findings = lint_source(
            "x = 1  # lint: disable=H2P101\n",
            path="<fixture>",
            module="repro.core.sample",
        )
        unused = [f for f in findings if f.code == UNUSED_SUPPRESSION_CODE]
        assert len(unused) == 1
        assert "H2P101" in unused[0].message

    def test_h2p109_not_self_suppressible(self):
        findings = lint_source(
            "x = 1  # lint: disable=H2P109\n",
            path="<fixture>",
            module="repro.core.sample",
        )
        assert any(
            f.code == UNUSED_SUPPRESSION_CODE for f in findings
        )

    def test_unused_check_skipped_under_rule_subset(self):
        from repro.lint.engine import get_rule

        findings = lint_source(
            "x = 1  # lint: disable=H2P121\n",
            path="<fixture>",
            module="repro.core.sample",
            rules=[get_rule("H2P121")],
        )
        assert findings == []


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
        doc = json.loads(
            render_json([], baseline={"matched": 1, "new": 0, "stale": []})
        )
        assert doc["baseline"]["matched"] == 1


# ---------------------------------------------------------- baseline


class TestBaselineRatchet:
    def _finding(self, path="src/x.py", code="H2P102", message="m", line=1):
        return Finding(code=code, message=message, path=path, line=line)

    def test_roundtrip_and_schema(self, tmp_path):
        baseline = tmp_path / "b.json"
        write_baseline(baseline, [self._finding(), self._finding(line=9)])
        doc = json.loads(baseline.read_text())
        assert doc["schema"] == BASELINE_SCHEMA
        # Same (path, code, message) twice -> one entry with count 2.
        assert len(doc["entries"]) == 1
        assert doc["entries"][0]["count"] == 2
        tolerated = load_baseline(baseline)
        assert tolerated[baseline_key(self._finding())] == 2

    def test_wrong_schema_rejected(self, tmp_path):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({"schema": "nope", "entries": []}))
        with pytest.raises(ValueError):
            load_baseline(baseline)

    def test_nonpositive_count_rejected(self, tmp_path):
        baseline = tmp_path / "b.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": BASELINE_SCHEMA,
                    "entries": [
                        {"path": "x", "code": "c", "message": "m", "count": 0}
                    ],
                }
            )
        )
        with pytest.raises(ValueError):
            load_baseline(baseline)

    def test_matched_findings_tolerated(self, tmp_path):
        baseline = tmp_path / "b.json"
        write_baseline(baseline, [self._finding()])
        result = apply_baseline([self._finding()], load_baseline(baseline))
        assert result.ok
        assert len(result.matched) == 1
        assert result.new == [] and result.stale == []

    def test_new_finding_fails(self, tmp_path):
        baseline = tmp_path / "b.json"
        write_baseline(baseline, [self._finding()])
        extra = self._finding(code="H2P121")
        result = apply_baseline(
            [self._finding(), extra], load_baseline(baseline)
        )
        assert not result.ok
        assert result.new == [extra]

    def test_count_overflow_is_new(self, tmp_path):
        # Two instances baselined, three present: the third is new.
        baseline = tmp_path / "b.json"
        write_baseline(baseline, [self._finding(), self._finding(line=2)])
        result = apply_baseline(
            [self._finding(line=i) for i in (1, 2, 3)],
            load_baseline(baseline),
        )
        assert len(result.matched) == 2
        assert len(result.new) == 1

    def test_stale_entry_fails_shrunk_baseline(self, tmp_path):
        baseline = tmp_path / "b.json"
        write_baseline(baseline, [self._finding()])
        result = apply_baseline([], load_baseline(baseline))
        assert not result.ok
        assert result.stale[0]["code"] == "H2P102"

    def test_line_moves_do_not_break_ratchet(self, tmp_path):
        # Keyed on (path, code, message), not line: edits above the
        # finding must not invalidate the baseline.
        baseline = tmp_path / "b.json"
        write_baseline(baseline, [self._finding(line=10)])
        result = apply_baseline(
            [self._finding(line=50)], load_baseline(baseline)
        )
        assert result.ok

    def test_summary_block(self):
        result = BaselineResult(
            new=[self._finding()], matched=[], stale=[]
        )
        summary = result.summary()
        assert summary == {"matched": 0, "new": 1, "stale": []}


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

    def test_update_then_pass_then_fail_on_new(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        root = self._seed_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        args = [str(root), "--src-root", str(root)]

        # 1. Findings exist -> exit 1.
        assert lint_main(args) == 1
        # 2. Record them -> exit 0.
        assert (
            lint_main(args + ["--baseline", str(baseline), "--update-baseline"])
            == 0
        )
        # 3. Ratchet passes while nothing changed.
        assert lint_main(args + ["--baseline", str(baseline)]) == 0
        # 4. A new violation fails the ratchet.
        (root / "repro" / "runtime" / "fresh.py").write_text(
            "import time\n\ndef later():\n    return time.time()\n"
        )
        assert lint_main(args + ["--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "1 new" in out

    def test_shrunk_baseline_reports_stale(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        root = self._seed_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        args = [str(root), "--src-root", str(root)]
        assert (
            lint_main(args + ["--baseline", str(baseline), "--update-baseline"])
            == 0
        )
        # Fix the finding without regenerating: stale entry, exit 1.
        (root / "repro" / "runtime" / "clocked.py").write_text(
            "def now():\n    return 0.0\n"
        )
        assert lint_main(args + ["--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "stale" in out
        assert "--update-baseline" in out

    def test_missing_baseline_is_usage_error(self, tmp_path):
        root = self._seed_tree(tmp_path)
        assert (
            lint_main(
                [str(root), "--src-root", str(root), "--baseline", "/no/file"]
            )
            == 2
        )

    def test_update_baseline_requires_baseline_flag(self, tmp_path):
        root = self._seed_tree(tmp_path)
        assert (
            lint_main([str(root), "--src-root", str(root), "--update-baseline"])
            == 2
        )

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

    def test_normalize_finding_paths(self, tmp_path):
        inside = Finding(
            code="H2P101",
            message="m",
            path=str(tmp_path / "src" / "x.py"),
            line=1,
        )
        outside = Finding(code="H2P101", message="m", path="plan://p", line=1)
        normalized = normalize_finding_paths([inside, outside], base=tmp_path)
        assert normalized[0].path == "src/x.py"
        assert normalized[1].path == "plan://p"

    def test_repo_baseline_file_is_current(self):
        # The committed baseline must load and carry the v1 schema —
        # the CI ratchet depends on both.
        repo_baseline = (
            Path(__file__).resolve().parents[1] / ".lint-baseline.json"
        )
        assert repo_baseline.exists()
        load_baseline(repo_baseline)  # raises on schema drift
