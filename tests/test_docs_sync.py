"""Documentation/code consistency checks.

Docs that drift from the code are worse than no docs; these tests pin the
reference documents to the registries they describe.
"""

from pathlib import Path

import pytest

from repro.attacks.campaign import ATTACK_CLASSES
from repro.cli import build_parser
from repro.core.catalog import CATALOG_IDS, make_assertion
from repro.experiments import ALL_EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def catalog_doc() -> str:
    return (ROOT / "docs" / "assertion_catalog.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


class TestCatalogDoc:
    def test_every_assertion_documented(self, catalog_doc):
        for aid in CATALOG_IDS:
            assert f"| {aid} |" in catalog_doc, f"{aid} missing from docs"

    def test_no_phantom_assertions(self, catalog_doc):
        import re

        documented = set(re.findall(r"^\| (A\d+[GSC]?) \|", catalog_doc,
                                    flags=re.M))
        assert documented == set(CATALOG_IDS)

    def test_families_match_code(self, catalog_doc):
        for aid in CATALOG_IDS:
            assertion = make_assertion(aid)
            row = next(line for line in catalog_doc.splitlines()
                       if line.startswith(f"| {aid} |"))
            assert f"| {assertion.category} |" in row, (
                f"{aid}: doc family disagrees with code "
                f"({assertion.category!r})"
            )


class TestReadme:
    def test_catalog_size_current(self, readme):
        assert f"a {len(CATALOG_IDS)}-assertion catalog" in readme

    def test_examples_listed_exist(self, readme):
        for line in readme.splitlines():
            if line.startswith("| `") and line.endswith("|") and ".py" in line:
                name = line.split("`")[1]
                assert (ROOT / "examples" / name).exists(), name

    def test_every_example_listed(self, readme):
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in readme, f"{path.name} missing from README"

    def test_knob_table_matches_code(self, readme):
        import re

        knob = re.compile(r"ADASSURE_[A-Z][A-Z_]*")
        read = set()
        for path in (ROOT / "src").rglob("*.py"):
            read |= set(knob.findall(path.read_text(encoding="utf-8")))
        lines = readme.splitlines()
        start = lines.index("| knob | effect |")
        table = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            table.append(line)
        documented = set(knob.findall("\n".join(table)))
        assert documented == read, (
            f"undocumented: {sorted(read - documented)}; "
            f"not read by src/: {sorted(documented - read)}")


class TestExperimentsDoc:
    def test_every_experiment_in_experiments_md(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for exp_id in ALL_EXPERIMENTS:
            assert exp_id.upper() in text, f"{exp_id} missing"

    def test_every_experiment_has_bench(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        for exp_id in ALL_EXPERIMENTS:
            assert any(b.startswith(f"bench_{exp_id}_") for b in benches), (
                f"no bench for {exp_id}: {sorted(benches)}"
            )


class TestCliSurface:
    def test_attack_choices_match_registry(self):
        parser = build_parser()
        # Find the run subparser's --attack choices.
        run_parser = parser._subparsers._group_actions[0].choices["run"]
        attack_action = next(a for a in run_parser._actions
                             if a.dest == "attack")
        assert set(attack_action.choices) == {"none"} | set(ATTACK_CLASSES)

    def test_explain_defaults_match_module_constants(self):
        from repro.experiments.counterfactual import (
            DEFAULT_BUDGET,
            DEFAULT_RESOLUTION,
        )

        parser = build_parser()
        explain = parser._subparsers._group_actions[0].choices["explain"]
        actions = {a.dest: a for a in explain._actions}
        assert actions["budget"].default == DEFAULT_BUDGET
        assert actions["resolution"].default == DEFAULT_RESOLUTION
        assert set(actions["sim_engine"].choices) == {"serial", "batch"}
        # Same controller universe as `run`.
        run_parser = parser._subparsers._group_actions[0].choices["run"]
        run_controllers = next(a for a in run_parser._actions
                               if a.dest == "controller").choices
        assert actions["controller"].choices == run_controllers


class TestCounterfactualDoc:
    @pytest.fixture(scope="class")
    def doc(self) -> str:
        return (ROOT / "docs" / "counterfactual.md").read_text(
            encoding="utf-8")

    def test_budget_default_current(self, doc):
        from repro.experiments.counterfactual import DEFAULT_BUDGET

        assert f"default {DEFAULT_BUDGET}" in doc

    def test_search_cores_documented(self, doc):
        for core in ("ddmin_interval", "ddmin_subset", "bisect_intensity"):
            assert core in doc, f"{core} missing from docs/counterfactual.md"

    def test_cross_links_resolve(self, doc, readme):
        # README and the doc must point at each other's surfaces.
        assert "docs/counterfactual.md" in readme
        assert "adassure explain" in readme
        for test_file in ("tests/test_counterfactual.py",
                          "tests/test_counterfactual_exact.py"):
            assert (ROOT / test_file).exists()
            assert test_file in doc

    def test_design_mentions_module(self):
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        assert "counterfactual.py" in design
        assert "docs/counterfactual.md" in design

    def test_round_batching_documented(self, doc):
        # The speculative-prefetch layer and its accounting counters.
        assert "Round-batched speculation" in doc
        for counter in ("speculative_issued", "speculative_wasted",
                        "batch_groups", "dare_memo_hits"):
            assert counter in doc, f"{counter} missing from docs"
        assert "BENCH_probes.json" in doc
        assert "planner.md" in doc


class TestPlannerDoc:
    @pytest.fixture(scope="class")
    def doc(self) -> str:
        return (ROOT / "docs" / "planner.md").read_text(encoding="utf-8")

    def test_api_surface_documented(self, doc):
        from repro.experiments import plan

        for name in ("ProbePlan", "PlannedRun"):
            assert hasattr(plan, name), f"plan.{name} gone but documented"
            assert name in doc, f"{name} missing from docs/planner.md"
        from repro.sim import engine
        assert hasattr(engine, "lane_spec")
        assert "lane_spec" in doc
        assert hasattr(plan.ProbePlan, "plan_scored")
        assert "plan_scored" in doc

    def test_counters_documented(self, doc):
        for counter in ("planned", "plan_batched", "plan_fallbacks",
                        "dare_memo_hits", "dare_memo_solves"):
            assert counter in doc, f"{counter} missing from docs/planner.md"

    def test_cross_links_resolve(self, doc, readme):
        assert "docs/planner.md" in readme
        assert "counterfactual.md" in doc
        assert (ROOT / "tests" / "test_probe_batching.py").exists()
        assert "tests/test_probe_batching.py" in doc
        design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        assert "plan.py" in design
        assert "docs/planner.md" in design
