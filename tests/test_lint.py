"""Tests for the ``repro.lint`` static-analysis subsystem.

Deliberately-seeded violations (written as fixture trees under
``tmp_path`` mimicking the ``repro`` package layout) must produce the
expected rule codes in both text and JSON output; the real tree must
lint clean; exit codes must behave as CI expects, and a run that
checks nothing must fail as a usage error.
"""

import json
import re
from pathlib import Path


import repro
from repro.lint import (
    Finding,
    RULE_REGISTRY,
    lint_paths,
    render_json,
    render_text,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import lint_source, module_name_for
from repro.lint.rules.layering import LAYERS, MODULE_OVERRIDES, rank_of


def _lint_snippet(source, module="repro.core.sample"):
    """Lint one in-memory module; return the set of finding codes."""
    findings = lint_source(source, path="<fixture>", module=module)
    return {f.code for f in findings}, findings


# ---------------------------------------------------------------- AST rules


class TestWallClockRule:
    def test_time_time_in_runtime_fixture(self, tmp_path):
        # The acceptance-criteria fixture: time.time() in a runtime/ file.
        root = tmp_path / "src"
        bad = root / "repro" / "runtime" / "clocked.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef now() -> float:\n    return time.time()\n")
        findings = lint_paths([root], src_root=root)
        assert any(f.code == "H2P101" for f in findings)
        (finding,) = [f for f in findings if f.code == "H2P101"]
        assert finding.line == 4

    def test_datetime_now_flagged_in_core(self):
        codes, _ = _lint_snippet(
            "from datetime import datetime\n"
            "def stamp() -> float:\n"
            "    return datetime.now().timestamp()\n",
            module="repro.core.sample",
        )
        assert "H2P101" in codes

    def test_from_time_import_alias_flagged(self):
        codes, _ = _lint_snippet(
            "from time import perf_counter as tick\n"
            "def t() -> float:\n"
            "    return tick()\n",
            module="repro.runtime.sample",
        )
        assert "H2P101" in codes

    def test_wall_clock_fine_outside_simulator(self):
        codes, _ = _lint_snippet(
            "import time\n\ndef now() -> float:\n    return time.time()\n",
            module="repro.profiling.sample",
        )
        assert "H2P101" not in codes


class TestFloatEqualityRule:
    def test_literal_equality_flagged(self):
        codes, _ = _lint_snippet("def f(x: float) -> bool:\n    return x == 0.0\n")
        assert "H2P102" in codes

    def test_not_equals_flagged(self):
        codes, _ = _lint_snippet("def f(x: float) -> bool:\n    return x != 1.5\n")
        assert "H2P102" in codes

    def test_infeasible_comparison_exempt(self):
        codes, _ = _lint_snippet(
            "INFEASIBLE = float('inf')\n"
            "def f(x: float) -> bool:\n"
            "    return x == INFEASIBLE\n"
        )
        assert "H2P102" not in codes

    def test_int_literal_untouched(self):
        codes, _ = _lint_snippet("def f(n: int) -> bool:\n    return n == 0\n")
        assert "H2P102" not in codes


class TestFrozenMutationRule:
    FROZEN = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    x: float\n"
    )

    def test_self_assignment_flagged(self):
        codes, _ = _lint_snippet(
            self.FROZEN + "    def bump(self) -> None:\n        self.x = 1.0\n"
        )
        assert "H2P103" in codes

    def test_object_setattr_outside_post_init_flagged(self):
        codes, _ = _lint_snippet(
            self.FROZEN
            + "    def sneak(self) -> None:\n"
            + "        object.__setattr__(self, 'x', 2.0)\n"
        )
        assert "H2P103" in codes

    def test_object_setattr_in_post_init_allowed(self):
        codes, _ = _lint_snippet(
            self.FROZEN
            + "    def __post_init__(self) -> None:\n"
            + "        object.__setattr__(self, 'x', 0.0)\n"
        )
        assert "H2P103" not in codes

    def test_mutable_dataclass_untouched(self):
        codes, _ = _lint_snippet(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Box:\n"
            "    x: float\n"
            "    def bump(self) -> None:\n"
            "        self.x = 1.0\n"
        )
        assert "H2P103" not in codes


class TestUnitSuffixRule:
    def test_unsuffixed_quantity_flagged(self):
        codes, _ = _lint_snippet("def makespan(n: int) -> float:\n    return 1.0\n")
        assert "H2P104" in codes

    def test_suffixed_quantity_clean(self):
        codes, _ = _lint_snippet(
            "def makespan_ms(n: int) -> float:\n    return 1.0\n"
            "def energy_mj(n: int) -> float:\n    return 1.0\n"
        )
        assert "H2P104" not in codes

    def test_non_float_return_untouched(self):
        codes, _ = _lint_snippet(
            "def energy_breakdown(n: int) -> dict:\n    return {}\n"
        )
        assert "H2P104" not in codes


class TestInfeasibleArithmeticRule:
    def test_addition_flagged(self):
        codes, _ = _lint_snippet(
            "INFEASIBLE = float('inf')\n"
            "def f(x: float) -> float:\n"
            "    return x + INFEASIBLE\n"
        )
        assert "H2P105" in codes

    def test_augassign_flagged(self):
        codes, _ = _lint_snippet(
            "INFEASIBLE = float('inf')\n"
            "def f(x: float) -> float:\n"
            "    x += INFEASIBLE\n"
            "    return x\n"
        )
        assert "H2P105" in codes

    def test_min_pruning_allowed(self):
        codes, _ = _lint_snippet(
            "INFEASIBLE = float('inf')\n"
            "def f(x: float) -> float:\n"
            "    return min(x, INFEASIBLE)\n"
        )
        assert "H2P105" not in codes


class TestPrintRule:
    def test_print_in_library_module_flagged(self):
        codes, findings = _lint_snippet(
            "def plan() -> None:\n    print('makespan', 3)\n"
        )
        assert "H2P107" in codes
        msg = next(f for f in findings if f.code == "H2P107").message
        assert "obs recorder" in msg

    def test_cli_module_exempt(self):
        codes, _ = _lint_snippet(
            "def run() -> None:\n    print('done')\n", module="repro.cli"
        )
        assert "H2P107" not in codes

    def test_reporters_module_exempt(self):
        codes, _ = _lint_snippet(
            "def render() -> None:\n    print('finding')\n",
            module="repro.lint.reporters",
        )
        assert "H2P107" not in codes

    def test_main_guard_exempt(self):
        codes, _ = _lint_snippet(
            "def main() -> int:\n"
            "    return 0\n"
            "if __name__ == '__main__':\n"
            "    print(main())\n",
            module="repro.experiments.sample",
        )
        assert "H2P107" not in codes

    def test_shadowed_or_method_print_unflagged(self):
        codes, _ = _lint_snippet(
            "def f(writer) -> None:\n    writer.print('x')\n"
        )
        assert "H2P107" not in codes

    def test_non_repro_code_out_of_scope(self):
        codes, _ = _lint_snippet(
            "print('hello')\n", module="scripts.helper"
        )
        assert "H2P107" not in codes


class TestSpanContextRule:
    def test_manually_held_span_flagged(self):
        # The exact leak class PR 3 fixed by hand in plan.mitigate.
        codes, findings = _lint_snippet(
            "from .. import obs\n"
            "def plan() -> None:\n"
            "    sp = obs.span('plan.mitigate')\n"
            "    sp.__enter__()\n"
        )
        assert "H2P108" in codes
        msg = next(f for f in findings if f.code == "H2P108").message
        assert "with" in msg

    def test_bare_imported_span_flagged(self):
        codes, _ = _lint_snippet(
            "from repro.obs import span\n"
            "def f() -> None:\n"
            "    sp = span('work')\n"
        )
        assert "H2P108" in codes

    def test_with_statement_sanctioned(self):
        codes, _ = _lint_snippet(
            "from .. import obs\n"
            "def plan() -> None:\n"
            "    with obs.span('plan') as sp:\n"
            "        sp.set(x=1)\n"
        )
        assert "H2P108" not in codes

    def test_conditional_span_inside_with_item_sanctioned(self):
        # The executor's record-gated pattern: the call stays inside the
        # with item's context expression.
        codes, _ = _lint_snippet(
            "from .. import obs\n"
            "def run(record: bool) -> None:\n"
            "    with (obs.span('execute') if record else obs.NULL_SPAN):\n"
            "        pass\n"
        )
        assert "H2P108" not in codes

    def test_unrelated_span_name_unflagged(self):
        # A local variable/function merely named `span` is not the
        # obs helper (no obs import brought it in).
        codes, _ = _lint_snippet(
            "def span(width: float) -> float:\n"
            "    return width * 2\n"
            "def f() -> float:\n"
            "    return span(3.0)\n"
        )
        assert "H2P108" not in codes

    def test_obs_package_itself_exempt(self):
        codes, _ = _lint_snippet(
            "def span(name):\n"
            "    return object()\n"
            "def helper():\n"
            "    return span('internal')\n",
            module="repro.obs.recorder",
        )
        assert "H2P108" not in codes

    def test_fixture_tree_flags_span_leak(self, tmp_path):
        root = tmp_path / "src"
        bad = root / "repro" / "core" / "leaky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "from .. import obs\n"
            "def plan() -> None:\n"
            "    sp = obs.span('plan')\n"
        )
        findings = lint_paths([root], src_root=root)
        assert any(f.code == "H2P108" for f in findings)
        (finding,) = [f for f in findings if f.code == "H2P108"]
        assert finding.line == 3


# ------------------------------------------------------------- layering rule


class TestLayeringRule:
    def test_synthetic_upward_import(self, tmp_path):
        # The acceptance-criteria fixture: runtime importing experiments.
        root = tmp_path / "src"
        bad = root / "repro" / "runtime" / "upward.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("from ..experiments.common import geomean\n")
        findings = lint_paths([root], src_root=root)
        assert [f.code for f in findings] == ["H2P201"]
        assert "repro.experiments.common" in findings[0].message

    def test_downward_import_clean(self, tmp_path):
        root = tmp_path / "src"
        good = root / "repro" / "core" / "downward.py"
        good.parent.mkdir(parents=True)
        good.write_text("from ..hardware.soc import SocSpec\n")
        assert lint_paths([root], src_root=root) == []

    def test_function_level_import_exempt(self, tmp_path):
        root = tmp_path / "src"
        mod = root / "repro" / "runtime" / "lazy.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "def schemes():\n"
            "    from ..experiments.common import geomean\n"
            "    return geomean\n"
        )
        assert lint_paths([root], src_root=root) == []

    def test_rank_map_is_consistent(self):
        # Overrides refine modules of packages that exist in the map.
        for module in MODULE_OVERRIDES:
            assert module.split(".")[1] in LAYERS
        assert rank_of("repro.obs.recorder") < rank_of("repro.core.plan")
        assert rank_of("repro.runtime.schedule") < rank_of("repro.core.plan")
        assert rank_of("repro.runtime.queueing") > rank_of("repro.baselines.band")
        assert rank_of("numpy") is None

    def test_real_tree_has_no_upward_imports(self):
        src_root = Path(repro.__file__).resolve().parents[1]
        findings = lint_paths([src_root / "repro"], src_root=src_root)
        assert [f for f in findings if f.code == "H2P201"] == []


# -------------------------------------------------- engine-level behaviours


class TestSuppressionAndReporting:
    def test_wrong_code_does_not_suppress(self):
        codes, _ = _lint_snippet(
            "def f(x: float) -> bool:\n"
            "    return x == 0.0  # lint: disable=H2P999\n"
        )
        assert "H2P102" in codes

    def test_syntax_error_reported_not_raised(self):
        codes, findings = _lint_snippet("def broken(:\n")
        assert codes == {"H2P000"}

    def test_text_report_format(self):
        findings = [
            Finding(code="H2P101", message="m", path="a.py", line=3, col=1)
        ]
        text = render_text(findings)
        assert "a.py:3:1: H2P101 m" in text
        assert "1 finding(s)" in text
        assert render_text([]) == "lint: clean (0 findings)"

    def test_json_report_roundtrip(self):
        findings = [
            Finding(code="H2P102", message="m", path="b.py", line=7),
            Finding(code="H2P102", message="m2", path="b.py", line=9),
        ]
        doc = json.loads(render_json(findings))
        assert doc["total"] == 2
        assert doc["counts"] == {"H2P102": 2}
        assert doc["findings"][0]["line"] == 7

    def test_module_name_resolution(self, tmp_path):
        root = tmp_path / "src"
        init = root / "repro" / "runtime" / "__init__.py"
        init.parent.mkdir(parents=True)
        init.write_text("")
        assert module_name_for(init, root) == "repro.runtime"
        outside = tmp_path / "elsewhere.py"
        outside.write_text("")
        assert module_name_for(outside, root) == ""
        # Outside the root, the nearest ``repro`` ancestor names it.
        stray = tmp_path / "other" / "repro" / "core" / "x.py"
        stray.parent.mkdir(parents=True)
        stray.write_text("")
        assert module_name_for(stray, root) == "repro.core.x"

    def test_registry_has_all_documented_rules(self):
        # Equality, not a subset: a rule deleted with its doc section
        # left behind (or registered without one) fails here.
        doc = (
            Path(__file__).resolve().parents[1] / "docs" / "STATIC_ANALYSIS.md"
        ).read_text()
        documented = set(re.findall(r"^### (H2P\d{3}) ", doc, re.MULTILINE))
        assert documented == set(RULE_REGISTRY)


# ------------------------------------------------------------------ the CLI


class TestLintCli:
    def _fixture_tree(self, tmp_path):
        root = tmp_path / "src"
        bad = root / "repro" / "runtime" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n"
            "from ..experiments.common import geomean\n"
            "def makespan(n: int) -> float:\n"
            "    return time.time()\n"
        )
        return root

    def test_exit_one_and_text_output(self, tmp_path, capsys):
        root = self._fixture_tree(tmp_path)
        status = lint_main([str(root), "--src-root", str(root)])
        out = capsys.readouterr().out
        assert status == 1
        assert "H2P101" in out and "H2P201" in out and "H2P104" in out

    def test_tree_outside_src_root_is_linted(self, tmp_path, capsys):
        # No --src-root: the default root does not hold the fixture, so
        # its modules are named from their ``repro`` ancestor.
        root = self._fixture_tree(tmp_path)
        status = lint_main([str(root)])
        out = capsys.readouterr().out
        assert status == 1
        assert "H2P101" in out and "H2P201" in out

    def test_json_output_parses(self, tmp_path, capsys):
        root = self._fixture_tree(tmp_path)
        status = lint_main([str(root), "--src-root", str(root), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert status == 1
        assert doc["total"] >= 3
        assert {"H2P101", "H2P201", "H2P104"} <= set(doc["counts"])

    def test_rule_filter(self, tmp_path, capsys):
        root = self._fixture_tree(tmp_path)
        status = lint_main(
            [str(root), "--src-root", str(root), "--rules", "H2P201", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert status == 1
        assert set(doc["counts"]) == {"H2P201"}

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        status = lint_main([str(tmp_path), "--rules", "NOPE"])
        assert status == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("unknown rule 'NOPE'; known: ")

    def test_missing_path_is_usage_error(self, tmp_path):
        status = lint_main([str(tmp_path / "absent")])
        assert status == 2

    # A run that checks nothing must not print "clean" and exit 0.

    def _assert_usage_error(self, argv, capsys):
        assert lint_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_empty_rule_list_is_usage_error(self, tmp_path, capsys):
        root = self._fixture_tree(tmp_path)
        for rules in (",", "", " , "):
            self._assert_usage_error(
                [str(root), "--src-root", str(root), "--rules", rules], capsys
            )

    def test_directory_without_python_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no code here\n")
        self._assert_usage_error([str(tmp_path)], capsys)

    def test_missing_src_root_is_usage_error(self, tmp_path, capsys):
        self._assert_usage_error(["--src-root", str(tmp_path / "absent")], capsys)
        # A source root without the repro package lints no file either.
        self._assert_usage_error(["--src-root", str(tmp_path)], capsys)

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "H2P201" in out and "import-layering" in out

    def test_repo_lints_clean(self, capsys):
        # The acceptance criterion: the shipped tree has zero findings.
        assert lint_main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_hetero2pipe_lint_subcommand(self, capsys):
        from repro.cli import main as h2p_main

        assert h2p_main(["lint", "--list-rules"]) == 0
        assert "H2P101" in capsys.readouterr().out
        assert h2p_main(["lint", "--rules", ","]) == 2
        assert "clean" not in capsys.readouterr().out
