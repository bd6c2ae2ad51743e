"""repro-lint: rule firing, suppression, scoping, CLI contract.

Acceptance criteria covered here: ``python -m repro.lint src/`` exits 0 on
the repo at merge, and exits non-zero on each ``tests/lint_fixtures/``
bad-example file (one fixture per REPxxx rule).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis_static.linter import lint_paths, lint_source
from repro.analysis_static.rules import (RULES, infer_roles,
                                         suppressed_rules)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
SRC = REPO / "src"

EXPECTED = {
    "REP001": FIXTURES / "bad_rep001.py",
    "REP002": FIXTURES / "bad_rep002.py",
    "REP003": FIXTURES / "bad_rep003.py",
    "REP004": FIXTURES / "bad_rep004.py",
    "REP005": FIXTURES / "bad_rep005.py",
    "REP006": FIXTURES / "bad_rep006.py",
    "REP007": FIXTURES / "bad_rep007.py",
    "REP008": FIXTURES / "bad_service_block.py",
    "REP009": FIXTURES / "bad_kernel_promotion.py",
}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})


class TestRuleCatalogue:
    def test_nine_rules_shipped(self):
        assert sorted(RULES) == ["REP001", "REP002", "REP003", "REP004",
                                 "REP005", "REP006", "REP007", "REP008",
                                 "REP009"]

    def test_every_rule_has_a_hint(self):
        for rule in RULES.values():
            assert rule.hint and rule.title


class TestFixtures:
    @pytest.mark.parametrize("rule_id", sorted(EXPECTED))
    def test_each_fixture_fires_only_its_rule(self, rule_id):
        findings = lint_paths([EXPECTED[rule_id]])
        assert findings, f"{rule_id} fixture produced no findings"
        assert {f.rule for f in findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", sorted(EXPECTED))
    def test_cli_exits_nonzero_on_each_fixture(self, rule_id):
        proc = run_cli(str(EXPECTED[rule_id]))
        assert proc.returncode == 1
        assert rule_id in proc.stdout

    def test_findings_carry_location_and_hint(self):
        f = lint_paths([EXPECTED["REP001"]])[0]
        assert f.line > 0
        assert str(EXPECTED["REP001"].name) in f.path
        assert f.hint == RULES["REP001"].hint
        assert f"{f.path}:{f.line}" in f.format()

    def test_clean_near_miss_file(self):
        assert lint_paths([FIXTURES / "good_clean.py"]) == []


class TestRepoIsClean:
    def test_src_tree_clean(self):
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_exit_zero_on_src(self):
        proc = run_cli("src/")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout


class TestSuppression:
    def test_disable_comment_silences_one_rule(self):
        src = ("# repro-lint: roles=numeric\n"
               "d = {'a': 1.0}\n"
               "t = sum(d.values())  # repro-lint: disable=REP001\n")
        assert lint_source(src, "x.py") == []

    def test_disable_all(self):
        src = ("# repro-lint: roles=numeric\n"
               "t = sum(set([1.0]))  # repro-lint: disable=all\n")
        assert lint_source(src, "x.py") == []

    def test_wrong_rule_id_does_not_silence(self):
        src = ("# repro-lint: roles=numeric\n"
               "t = sum(set([1.0]))  # repro-lint: disable=REP005\n")
        assert [f.rule for f in lint_source(src, "x.py")] == ["REP001"]

    def test_suppressed_rules_parser(self):
        assert suppressed_rules("x = 1  # repro-lint: disable=REP001,REP002"
                                ) == {"REP001", "REP002"}
        assert suppressed_rules("x = 1") == frozenset()


class TestScoping:
    def test_role_inference_from_paths(self):
        roles = infer_roles("src/repro/parallel/simmpi/engine.py")
        assert {"parallel", "simtime", "numeric"} <= roles
        roles = infer_roles("src/repro/parallel/procpool/shm.py")
        assert "procpool" in roles
        assert "procpool" not in infer_roles("src/repro/core/energy.py")

    def test_executor_role_from_plan_dir(self):
        roles = infer_roles("src/repro/plan/executor.py")
        assert {"executor", "numeric", "kernel"} <= roles
        assert "executor" not in infer_roles("src/repro/core/born.py")

    def test_rep006_scoped_to_executor_modules(self):
        src = ("def run(leaves, vals):\n"
               "    t = 0.0\n"
               "    for leaf in leaves:\n"
               "        t += vals[leaf]\n"
               "    return t\n")
        assert [f.rule for f in
                lint_source(src, "src/repro/plan/executor.py")] == ["REP006"]
        # The per-leaf reference kernels outside plan/ stay legal.
        assert lint_source(src, "src/repro/core/born.py") == []

    def test_reduction_homes_exempt_from_rep002(self):
        src = "import numpy as np\nr = np.stack(vals).sum(axis=0)\n"
        home = "src/repro/parallel/simmpi/collectives.py"
        elsewhere = "src/repro/parallel/elsewhere.py"
        assert lint_source(src, home) == []
        assert [f.rule for f in lint_source(src, elsewhere)] == ["REP002"]

    def test_wallclock_fine_outside_simtime(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, "src/repro/parallel/procpool/pool.py") \
            == []
        assert [f.rule for f in
                lint_source(src, "src/repro/parallel/cilk/scheduler.py")] \
            == ["REP003"]

    def test_service_role_inferred_for_serve_tree(self):
        roles = infer_roles("src/repro/serve/scheduler.py")
        assert "service" in roles
        assert "service" not in infer_roles("src/repro/core/energy.py")

    def test_wallclock_confined_to_serve_metrics(self):
        """REP003 in the serving layer: only serve/metrics.py may read the
        wall clock; every other serve module must import its ``now``."""
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, "src/repro/serve/metrics.py") == []
        for module in ("client.py", "scheduler.py", "fleet.py",
                       "registry.py"):
            findings = lint_source(src, f"src/repro/serve/{module}")
            assert [f.rule for f in findings] == ["REP003"], module

    def test_service_fixture_fires_only_rep003(self):
        findings = lint_paths([FIXTURES / "bad_service_clock.py"])
        assert findings
        assert {f.rule for f in findings} == {"REP003"}
        assert all("service" in f.message for f in findings)

    def test_cluster_role_inferred_for_cluster_tree(self):
        roles = infer_roles("src/repro/cluster/router.py")
        assert "cluster" in roles
        assert "cluster" not in infer_roles("src/repro/serve/scheduler.py")

    def test_wallclock_confined_to_cluster_metrics(self):
        """REP003 in the fabric: only cluster/metrics.py may read the
        wall clock; every other cluster module imports ``cluster_now``."""
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, "src/repro/cluster/metrics.py") == []
        for module in ("ring.py", "router.py", "shard.py", "workload.py"):
            findings = lint_source(src, f"src/repro/cluster/{module}")
            assert [f.rule for f in findings] == ["REP003"], module

    def test_cluster_fixture_fires_only_rep003(self):
        findings = lint_paths([FIXTURES / "bad_cluster_clock.py"])
        assert findings
        assert {f.rule for f in findings} == {"REP003"}

    def test_multiprocessing_allowed_in_procpool(self):
        src = "from multiprocessing import shared_memory\n"
        assert lint_source(src, "src/repro/parallel/procpool/shm.py") == []
        assert [f.rule for f in
                lint_source(src, "src/repro/octree/build.py")] == ["REP004"]


class TestRep007:
    def test_seeded_generator_allowed(self):
        src = ("import numpy as np\n"
               "rng = np.random.default_rng(7)\n"
               "x = rng.normal(size=3)\n")
        assert lint_source(src, "src/repro/core/params.py") == []

    def test_unseeded_draws_flagged(self):
        src = ("import random\n"
               "import numpy as np\n"
               "a = np.random.default_rng()\n"
               "b = np.random.normal(size=3)\n"
               "c = random.random()\n")
        assert [f.rule for f in
                lint_source(src, "src/repro/core/params.py")] \
            == ["REP007", "REP007", "REP007"]

    def test_rng_home_and_tests_exempt(self):
        src = "import numpy as np\nx = np.random.normal(size=3)\n"
        assert lint_source(src, "src/repro/molecule/generators.py") == []
        assert lint_source(src, "tests/test_something.py") == []
        assert "rng" in infer_roles("src/repro/molecule/generators.py")
        assert "rng" in infer_roles("benchmarks/test_plan_kernels.py")

    def test_from_import_aliases_tracked(self):
        src = ("from numpy.random import default_rng as mk\n"
               "from random import random as draw\n"
               "a = mk()\n"
               "b = mk(123)\n"
               "c = draw()\n")
        rules = [f.rule for f in lint_source(src, "src/repro/core/x.py")]
        assert rules == ["REP007", "REP007"]  # mk(123) is seeded


class TestRep009:
    def test_literal_chain_flagged_in_kernel(self):
        src = "def f(x):\n    return x * 1 / 3\n"
        assert [f.rule for f in
                lint_source(src, "src/repro/core/energy.py")] == ["REP009"]
        assert [f.rule for f in
                lint_source(src, "src/repro/plan/executor.py")] == ["REP009"]

    def test_single_literal_and_folded_constant_pass(self):
        src = ("THIRD = 1.0 / 3.0\n"
               "def f(x):\n"
               "    return 2.0 * x + THIRD * x\n")
        assert lint_source(src, "src/repro/core/energy.py") == []

    def test_scoped_to_kernel_and_executor_roles(self):
        src = "def f(x):\n    return x * 1 / 3\n"
        # octree/ is numeric but neither kernel nor executor.
        assert lint_source(src, "src/repro/octree/build.py") == []

    def test_per_line_suppression(self):
        src = ("def f(x):\n"
               "    return x * 1 / 3  # repro-lint: disable=REP009\n")
        assert lint_source(src, "src/repro/core/energy.py") == []

    def test_chain_root_reported_once(self):
        src = "def f(x):\n    return x * 1 / 3 * 4 / 5\n"
        findings = lint_source(src, "src/repro/core/energy.py")
        assert [f.rule for f in findings] == ["REP009"]


class TestCLI:
    def test_json_output_schema(self):
        proc = run_cli(str(EXPECTED["REP003"]), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["count"] == len(payload["findings"]) > 0
        first = payload["findings"][0]
        assert {"rule", "path", "line", "col", "message",
                "hint"} <= set(first)

    def test_rules_filter(self):
        proc = run_cli(str(EXPECTED["REP001"]), "--rules", "REP004")
        assert proc.returncode == 0  # REP001 fixture has no REP004 issue

    def test_unknown_rule_rejected(self):
        proc = run_cli("--rules", "REP999")
        assert proc.returncode == 2

    def test_help_names_the_rule_range(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert f"({min(RULES)}..{max(RULES)})" in proc.stdout

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in RULES:
            assert rule_id in proc.stdout

    def test_syntax_error_reported_not_crash(self):
        findings = lint_source("def broken(:\n", "x.py")
        assert findings and findings[0].rule == "REP000"
