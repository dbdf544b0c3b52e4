"""Tests for the whole-program dataflow layer (DESIGN.md §14).

Covers the module IR and incremental cache, each new rule family's
positive and negative fixtures, the acceptance case that flow-sensitive
LEA1xx catches oracle taint laundered through a helper-function return
while the syntactic LEA001-003 provably miss it, suppression-comment
edge cases, the SARIF reporter, and the zero-findings whole-tree sweep
with every family enabled.
"""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    default_project_rules,
    default_rules,
    render_sarif,
)
from repro.analysis.bus_protocol import (
    EVENT_OWNERS,
    DeadEventRule,
    ForeignEmitRule,
    UnknownSubscriptionRule,
)
from repro.analysis.cache_safety import (
    CacheDirWriteRule,
    CellParamJsonRule,
    DirectExperimentWriteRule,
)
from repro.analysis.callgraph import build_call_graph
from repro.analysis.cli import main as lint_main
from repro.analysis.core import Finding, Rule, Severity, lint_paths
from repro.analysis.dataflow import (
    AnalysisCache,
    Project,
    analyze_project,
    extract_module,
    module_name_for,
)
from repro.analysis.leakage import LEAKAGE_RULES
from repro.analysis.oracle_flow import (
    OracleIntoBudgetRule,
    OracleIntoPlanRule,
    OracleIntoThresholdRule,
)
from repro.analysis.rng_provenance import (
    GlobalRngRule,
    MeasurePathDrawRule,
    UnseededRngRule,
)

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Minimal event hierarchy for fixture trees.
EVENTS_SRC = """
    '''Fixture event hierarchy.'''

    __all__ = []


    class SessionEvent:
        pass


    class SegmentStart(SessionEvent):
        pass


    class CustomEvent(SessionEvent):
        pass
"""


def write_tree(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path; returns the root."""
    root = tmp_path / "tree"
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return root


def project_findings(root, rules):
    findings, _ = analyze_project([str(root)], rules)
    return findings


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestModuleIR:
    def test_module_name_anchoring(self):
        assert module_name_for("src/repro/sampling/pgss.py") == (
            "repro.sampling.pgss"
        )
        assert module_name_for("/x/repro/events.py") == "repro.events"
        assert module_name_for("a/b/loose.py") == "loose"
        assert module_name_for("src/repro/signals/__init__.py") == "repro.signals"

    def test_extraction_survives_syntax_error(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        mir = extract_module(str(path))
        assert mir.parse_error is not None
        assert mir.functions == ()

    def test_ir_is_picklable(self):
        import pickle

        mir = extract_module(str(SRC_REPRO / "sampling" / "session.py"))
        clone = pickle.loads(pickle.dumps(mir))
        assert clone == mir

    def test_function_local_imports_are_recorded(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/mod.py": """
                    def f():
                        from repro.events import CustomEvent
                        return CustomEvent
                """,
            },
        )
        mir = extract_module(str(root / "repro" / "mod.py"))
        assert ("CustomEvent", "repro.events.CustomEvent") in mir.imports


class TestCallGraph:
    def test_cross_module_resolution_and_reachability(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/a.py": """
                    from repro.b import helper

                    def entry():
                        return helper(1)
                """,
                "repro/b.py": """
                    def helper(x):
                        return leaf(x)

                    def leaf(x):
                        return x

                    def unrelated():
                        return 0
                """,
            },
        )
        mirs = [
            extract_module(str(root / "repro" / name))
            for name in ("a.py", "b.py")
        ]
        project = Project(mirs)
        graph = build_call_graph(project)
        assert "repro.b.helper" in graph.callees("repro.a.entry")
        reachable = graph.reachable(["repro.a.entry"])
        assert "repro.b.leaf" in reachable
        assert "repro.b.unrelated" not in reachable

    def test_self_method_resolution(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/c.py": """
                    class Widget:
                        def outer(self):
                            return self.inner()

                        def inner(self):
                            return 1
                """,
            },
        )
        project = Project([extract_module(str(root / "repro" / "c.py"))])
        graph = build_call_graph(project)
        assert "repro.c.Widget.inner" in graph.callees("repro.c.Widget.outer")


class TestOracleFlow:
    def test_lea101_catches_laundered_taint_syntactic_rules_miss(
        self, tmp_path
    ):
        """The acceptance case: oracle taint through a helper return.

        The helper lives outside the online subpackages, so LEA002 does
        not fire on its ``.true_ipc`` read; the online module never
        spells an oracle name, so LEA001-003 have nothing to match — yet
        the value steers ``ModeSegment`` construction.
        """
        root = write_tree(
            tmp_path,
            {
                "repro/stats/helpers.py": """
                    '''Fixture helper (offline package).'''

                    __all__ = []


                    def baseline_ipc(trace):
                        return trace.true_ipc
                """,
                "repro/sampling/plan.py": """
                    '''Fixture online plan module.'''

                    __all__ = []

                    from repro.stats.helpers import baseline_ipc


                    def build(trace, mode):
                        ipc = baseline_ipc(trace)
                        ops = int(ipc * 1000)
                        return ModeSegment(mode, ops)
                """,
            },
        )
        # Syntactic leakage rules: provably silent on both modules.
        syntactic = lint_paths([str(root)], [cls() for cls in LEAKAGE_RULES])
        assert syntactic == []
        # Flow-sensitive rule: catches the laundered flow.
        findings = project_findings(root, [OracleIntoPlanRule()])
        assert rule_ids(findings) == ["LEA101"]
        assert "plan.py" in findings[0].path

    def test_lea101_taint_through_tuple_unpacking(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/sampling/tup.py": """
                    def build(trace, mode):
                        ipc, label = trace.true_ipc, "x"
                        return ModeSegment(mode, int(ipc))
                """,
            },
        )
        findings = project_findings(root, [OracleIntoPlanRule()])
        assert rule_ids(findings) == ["LEA101"]

    def test_lea101_negative_plain_config_flow(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/sampling/ok.py": """
                    def build(config, mode):
                        ops = int(config.detail_ops)
                        return ModeSegment(mode, ops)
                """,
            },
        )
        assert project_findings(root, [OracleIntoPlanRule()]) == []

    def test_lea102_budget_sink(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/sampling/budget.py": """
                    def fit(ctx, name):
                        target = ctx.true_ipc(name) / 100.0
                        return SampleBudget(1000, 3000, target, 0.997)
                """,
            },
        )
        findings = project_findings(root, [OracleIntoBudgetRule()])
        assert rule_ids(findings) == ["LEA102"]

    def test_lea103_threshold_sink_and_negative(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/phase/fit.py": """
                    def tuned(trace):
                        return OnlinePhaseClassifier(trace.true_ipc * 0.01)

                    def honest(threshold):
                        return OnlinePhaseClassifier(threshold)
                """,
            },
        )
        findings = project_findings(root, [OracleIntoThresholdRule()])
        assert rule_ids(findings) == ["LEA103"]
        assert len(findings) == 1


class TestRngProvenance:
    def test_det101_unseeded_and_unprovable(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/sim/noise.py": """
                    import os
                    import random


                    def bad_entropy():
                        return random.Random()


                    def bad_provenance():
                        return random.Random(os.getpid())
                """,
            },
        )
        findings = project_findings(root, [UnseededRngRule()])
        assert len(findings) == 2
        assert rule_ids(findings) == ["DET101"]

    def test_det101_negative_seed_through_helper(self, tmp_path):
        """Interprocedural: a seed-deriving helper is accepted."""
        root = write_tree(
            tmp_path,
            {
                "repro/sim/seeded.py": """
                    import random


                    def derive(seed, k):
                        mixed = (seed * 31 + 7) & 0xFFFF
                        return mixed


                    def make(cell_seed):
                        return random.Random(derive(cell_seed, 0))


                    def direct(config):
                        return random.Random(config.seed ^ 0x5EED)
                """,
            },
        )
        assert project_findings(root, [UnseededRngRule()]) == []

    def test_det102_module_global_rng(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/sim/shared.py": """
                    import random

                    _RNG = random.Random(7)
                """,
            },
        )
        findings = project_findings(root, [GlobalRngRule()])
        assert rule_ids(findings) == ["DET102"]

    def test_det103_measure_path_draw(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/cpu/jitterfx.py": """
                    import random

                    _RNG = random.Random(3)


                    def jitter(x):
                        return x + _RNG.random()


                    def clean(rng):
                        return rng.random()
                """,
            },
        )
        findings = project_findings(root, [MeasurePathDrawRule()])
        assert rule_ids(findings) == ["DET103"]
        assert len(findings) == 1
        # Same global + draw outside the measured packages: no DET103.
        root2 = write_tree(
            tmp_path / "other",
            {
                "repro/stats/shared2.py": """
                    import random

                    _RNG = random.Random(3)


                    def jitter(x):
                        return x + _RNG.random()
                """,
            },
        )
        assert project_findings(root2, [MeasurePathDrawRule()]) == []


class TestBusProtocol:
    def test_evt101_dead_event_and_ancestor_coverage(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/events.py": EVENTS_SRC,
                "repro/sampling/chatty.py": """
                    from repro.events import CustomEvent


                    def go(bus):
                        bus.emit(CustomEvent())
                """,
            },
        )
        findings = project_findings(root, [DeadEventRule()])
        assert rule_ids(findings) == ["EVT101"]
        # A subscription to the ancestor type covers the emit.
        root2 = write_tree(
            tmp_path / "covered",
            {
                "repro/events.py": EVENTS_SRC,
                "repro/sampling/chatty.py": """
                    from repro.events import CustomEvent


                    def go(bus):
                        bus.emit(CustomEvent())
                """,
                "repro/cli2.py": """
                    from repro.events import SessionEvent


                    def wire(bus):
                        bus.subscribe(SessionEvent, print)
                """,
            },
        )
        assert project_findings(root2, [DeadEventRule()]) == []

    def test_evt102_unknown_subscription(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/events.py": EVENTS_SRC,
                "repro/wiring.py": """
                    class NotAnEvent:
                        pass


                    def wire(bus):
                        bus.subscribe(NotAnEvent, print)
                """,
            },
        )
        findings = project_findings(root, [UnknownSubscriptionRule()])
        assert rule_ids(findings) == ["EVT102"]

    def test_evt102_callback_arity(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/events.py": EVENTS_SRC,
                "repro/wiring2.py": """
                    from repro.events import CustomEvent


                    def chunky(event, extra):
                        return (event, extra)


                    def wire(bus):
                        bus.subscribe(CustomEvent, chunky)
                """,
            },
        )
        findings = project_findings(root, [UnknownSubscriptionRule()])
        assert rule_ids(findings) == ["EVT102"]
        assert "argument" in findings[0].message

    def test_evt103_foreign_emit(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/events.py": EVENTS_SRC,
                "repro/experiments/forger.py": """
                    from repro.events import SegmentStart


                    def fake(bus):
                        bus.emit(SegmentStart())
                """,
            },
        )
        findings = project_findings(root, [ForeignEmitRule()])
        assert rule_ids(findings) == ["EVT103"]

    def test_event_owners_table_matches_real_hierarchy(self):
        tree = ast.parse((SRC_REPRO / "events.py").read_text())
        classes = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        }
        events = {
            name
            for name in classes
            if name not in ("SessionEvent", "EventBus")
        }
        assert set(EVENT_OWNERS) == events

    def test_real_emit_sites_respect_ownership(self):
        findings, _ = analyze_project(
            [str(SRC_REPRO)], [ForeignEmitRule(), DeadEventRule()]
        )
        assert findings == []


class TestCacheSafety:
    def test_cch101_tainted_cache_path_write(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/tools/dumper.py": """
                    import json


                    def side_write(cache, payload):
                        path = cache.directory / "extra.json"
                        with open(path, "w") as fh:
                            json.dump(payload, fh)
                """,
            },
        )
        findings = project_findings(root, [CacheDirWriteRule()])
        assert rule_ids(findings) == ["CCH101"]

    def test_cch101_negative_unrelated_path(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/tools/report.py": """
                    import json


                    def report(output, payload):
                        with open(output, "w") as fh:
                            json.dump(payload, fh)
                """,
            },
        )
        assert project_findings(root, [CacheDirWriteRule()]) == []

    def test_cch102_direct_write_in_experiment_module(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/experiments/fig99.py": """
                    import json


                    def run(ctx):
                        with open("results.json", "w") as fh:
                            json.dump({}, fh)
                """,
            },
        )
        findings = project_findings(root, [DirectExperimentWriteRule()])
        assert rule_ids(findings) == ["CCH102"]
        # The cache implementation itself is exempt.
        root2 = write_tree(
            tmp_path / "exempt",
            {
                "repro/experiments/cache.py": """
                    import json


                    def publish(path, payload):
                        with open(path, "w") as fh:
                            json.dump(payload, fh)
                """,
            },
        )
        assert project_findings(root2, [DirectExperimentWriteRule()]) == []

    def test_cch103_non_jsonable_cell_params(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/experiments/fig98.py": """
                    def helper(ctx):
                        return 1


                    def cells(ctx):
                        return [
                            ExperimentCell.make("f", "b", fn=lambda x: x),
                            ExperimentCell.make("f", "b", tags={1, 2}),
                            ExperimentCell.make("f", "b", technique=helper),
                            ExperimentCell.make("f", "b", n=5, name="ok"),
                        ]
                """,
            },
        )
        findings = project_findings(root, [CellParamJsonRule()])
        assert rule_ids(findings) == ["CCH103"]
        assert len(findings) == 3


class TestIncrementalCache:
    FILES = {
        "repro/pkg/base.py": """
            def shared(x):
                return x
        """,
        "repro/pkg/uses_base.py": """
            from repro.pkg.base import shared


            def caller():
                return shared(1)
        """,
        "repro/pkg/leaf_a.py": """
            def a():
                return 1
        """,
        "repro/pkg/leaf_b.py": """
            def b():
                return 2
        """,
    }

    def _run(self, root, cache_path):
        cache = AnalysisCache(cache_path)
        return analyze_project(
            [str(root)],
            default_project_rules(),
            ast_rules=default_rules(),
            cache=cache,
        )

    def test_warm_rerun_reuses_everything(self, tmp_path):
        root = write_tree(tmp_path, self.FILES)
        cache_path = tmp_path / "lint.cache"
        _, cold = self._run(root, cache_path)
        assert cold.modules_extracted == cold.modules_total == 4
        findings, warm = self._run(root, cache_path)
        assert warm.modules_extracted == 0
        assert warm.modules_analyzed == 0
        assert warm.findings_cached == 4

    def test_dirty_file_invalidates_only_its_dependents(self, tmp_path):
        root = write_tree(tmp_path, self.FILES)
        cache_path = tmp_path / "lint.cache"
        self._run(root, cache_path)
        target = root / "repro" / "pkg" / "base.py"
        target.write_text(target.read_text() + "\n# touched\n")
        _, stats = self._run(root, cache_path)
        assert stats.modules_extracted == 1
        # base.py itself + uses_base.py (closure contains base); the
        # two leaves come straight from the findings cache.
        assert stats.modules_analyzed == 2
        assert stats.findings_cached == 2

    def test_corrupt_cache_degrades_to_full_run(self, tmp_path):
        root = write_tree(tmp_path, self.FILES)
        cache_path = tmp_path / "lint.cache"
        self._run(root, cache_path)
        cache_path.write_bytes(b"not a pickle")
        _, stats = self._run(root, cache_path)
        assert stats.modules_extracted == 4

    def test_parallel_extraction_matches_serial(self, tmp_path):
        root = write_tree(tmp_path, self.FILES)
        serial, _ = analyze_project(
            [str(root)], default_project_rules(), ast_rules=default_rules()
        )
        parallel, stats = analyze_project(
            [str(root)],
            default_project_rules(),
            ast_rules=default_rules(),
            jobs=2,
        )
        assert serial == parallel
        assert stats.jobs == 2


class TestSuppressionEdgeCases:
    class FlagEveryDef(Rule):
        """Test-only rule flagging every function definition."""

        rule_id = "TST001"
        severity = Severity.ERROR
        summary = "flags defs, for suppression tests"

        def check(self, ctx):
            import ast as _ast

            for node in _ast.walk(ctx.tree):
                if isinstance(node, _ast.FunctionDef):
                    yield self.finding(ctx, node, "def found")

    def _lint(self, tmp_path, source, rules):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(source))
        return lint_paths([str(path)], rules)

    def test_suppression_on_decorated_def_line(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import functools


            @functools.lru_cache(maxsize=None)
            def cached():  # simlint: disable=TST001
                return 1


            @functools.lru_cache(maxsize=None)
            def flagged():
                return 2
            """,
            [self.FlagEveryDef()],
        )
        assert len(findings) == 1
        assert findings[0].line > 0

    def test_decorator_line_comment_does_not_suppress(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import functools


            @functools.lru_cache(maxsize=None)  # simlint: disable=TST001
            def on_decorator():
                return 1
            """,
            [self.FlagEveryDef()],
        )
        # The finding anchors on the ``def`` line, not the decorator.
        assert len(findings) == 1

    def test_multiline_expression_comment_on_last_line(self, tmp_path):
        from repro.analysis.determinism import WallClockRule

        findings = self._lint(
            tmp_path,
            """
            import time

            t0 = time.time(
            )  # simlint: disable=DET004
            t1 = time.time()
            """,
            [WallClockRule()],
        )
        assert len(findings) == 1
        assert findings[0].line == 6

    def test_file_level_disable(self, tmp_path):
        from repro.analysis.determinism import WallClockRule

        findings = self._lint(
            tmp_path,
            """
            # simlint: disable-file=DET004
            import time

            t0 = time.time()
            t1 = time.time()
            """,
            [WallClockRule()],
        )
        assert findings == []

    def test_file_level_disable_is_rule_scoped(self, tmp_path):
        from repro.analysis.determinism import (
            HostTimingRule,
            WallClockRule,
        )

        findings = self._lint(
            tmp_path,
            """
            # simlint: disable-file=DET004
            import time

            t0 = time.time()
            t1 = time.perf_counter()
            """,
            [WallClockRule(), HostTimingRule()],
        )
        assert rule_ids(findings) == ["DET005"]

    def test_project_rule_findings_respect_suppressions(self, tmp_path):
        root = write_tree(
            tmp_path,
            {
                "repro/sim/hushed.py": """
                    import random


                    def noisy():
                        return random.Random()  # simlint: disable=DET101
                """,
            },
        )
        assert project_findings(root, [UnseededRngRule()]) == []


class TestSarifReporter:
    def _findings(self):
        return [
            Finding(
                path="src/repro/x.py",
                line=3,
                col=5,
                rule_id="DET101",
                severity=Severity.ERROR,
                message="unseeded",
                end_line=4,
            ),
            Finding(
                path="src/repro/a.py",
                line=1,
                col=1,
                rule_id="LEA101",
                severity=Severity.WARNING,
                message="tainted",
            ),
        ]

    def test_sarif_shape(self):
        document = json.loads(
            render_sarif(self._findings(), default_project_rules())
        )
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "pgss-lint"
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"DET101", "LEA101", "EVT101", "CCH101"} <= rules
        results = run["results"]
        # Sorted by (path, line, col, rule).
        assert [r["ruleId"] for r in results] == ["LEA101", "DET101"]
        assert results[1]["level"] == "error"
        region = results[1]["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 3, "startColumn": 5, "endLine": 4}
        for result in results:
            assert run["tool"]["driver"]["rules"][result["ruleIndex"]][
                "id"
            ] == result["ruleId"]

    def test_sarif_deterministic(self):
        found = self._findings()
        assert render_sarif(found, default_project_rules()) == render_sarif(
            list(reversed(found)), default_project_rules()
        )


class TestCliIntegration:
    def test_explain_known_rule(self, capsys):
        assert lint_main(["--explain", "LEA101"]) == 0
        out = capsys.readouterr().out
        assert "LEA101" in out
        assert "helper" in out

    def test_explain_unknown_rule(self, capsys):
        assert lint_main(["--explain", "NOPE999"]) == 2

    def test_list_rules_includes_project_families(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("LEA101", "DET101", "EVT101", "CCH101", "DET001"):
            assert rule_id in out

    def test_sarif_output_round_trips(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("import time\nt0 = time.time()\n")
        assert lint_main([str(path), "--format", "sarif"]) == 2
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"]

    def test_json_includes_analysis_stats(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text('"""Doc."""\n\n__all__ = []\n')
        assert lint_main([str(path), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["analysis"]["modules_total"] == 1

    def test_no_project_flag(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text('"""Doc."""\n\n__all__ = []\n')
        assert lint_main(
            [str(path), "--format", "json", "--no-project"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert "analysis" not in document

    def test_cache_flag_incremental(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text('"""Doc."""\n\n__all__ = []\n')
        cache = tmp_path / "lint.cache"
        assert lint_main(
            [str(path), "--cache", str(cache), "--format", "json"]
        ) == 0
        capsys.readouterr()
        assert cache.exists()
        assert lint_main(
            [str(path), "--cache", str(cache), "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["analysis"]["modules_extracted"] == 0
        assert document["analysis"]["findings_cached"] == 1


class TestRealTreeSweep:
    def test_whole_tree_zero_findings_all_families(self):
        """The acceptance gate: src/repro is clean under every family."""
        findings, stats = analyze_project(
            [str(SRC_REPRO)],
            default_project_rules(),
            ast_rules=default_rules(),
        )
        assert findings == [], [str(f) for f in findings]
        assert stats.modules_total > 40
