"""repro-flow: the RV6xx shape/dtype/contiguity pass (``--check flow``).

Acceptance criteria covered here: the real tree is clean under
``--check flow``; each RV601--RV605 fires on its seeded-mutation fixture
in ``tests/flow_fixtures/``; the CLI family expansion, SARIF output and
baseline ratchet (including stale flow fingerprints) behave; and the
``@array_contract`` stamps cover every ``SharedArrayBundle``-published
array and the whole donation boundary.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis_static.flow import (BOUNDARY_CALLEES, ContractIndex,
                                        array_contract, contracts_of,
                                        dims_match, parse_spec, promote)
from repro.analysis_static.verify import run_verify
from repro.analysis_static.verify.program import Program
from repro.analysis_static.verify.report import CHECK_FAMILIES, CHECKS

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "flow_fixtures"
SRC = REPO / "src"

FLOW_CHECKS = ("RV601", "RV602", "RV603", "RV604", "RV605")

#: check id -> the fixture that must trigger it and nothing else.
BAD_FIXTURES = {
    "RV601": FIXTURES / "bad_shape.py",
    "RV602": FIXTURES / "bad_dtype.py",
    "RV603": FIXTURES / "bad_publish.py",
    "RV604": FIXTURES / "bad_index.py",
    "RV605": FIXTURES / "bad_boundary.py",
}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.verify", *args],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})


@pytest.fixture(scope="module")
def src_flow():
    """One flow pass over the real tree, shared by the clean-tree proofs."""
    return run_verify([SRC / "repro"], checks=list(FLOW_CHECKS))


class TestCatalogue:
    def test_flow_family_registered(self):
        assert CHECK_FAMILIES["flow"] == FLOW_CHECKS
        for check_id in FLOW_CHECKS:
            assert check_id in CHECKS
            assert CHECKS[check_id].hint

    def test_flow_slugs(self):
        assert CHECKS["RV601"].slug == "flow-shape-mismatch"
        assert CHECKS["RV605"].slug == "flow-uncontracted-boundary"


class TestRepoIsClean:
    def test_zero_active_flow_findings(self, src_flow):
        active = [f for f in src_flow.active if f.check in FLOW_CHECKS]
        assert active == [], "\n".join(f.format() for f in active)


class TestSeededMutations:
    @pytest.mark.parametrize("check_id", sorted(BAD_FIXTURES))
    def test_each_fixture_fires_only_its_check(self, check_id):
        result = run_verify([BAD_FIXTURES[check_id]],
                            checks=list(FLOW_CHECKS))
        fired = {f.check for f in result.active}
        assert fired == {check_id}, (
            f"{check_id} fixture fired {fired or 'nothing'}: "
            + "\n".join(f.format() for f in result.active))

    def test_shape_fixture_names_both_swapped_args(self):
        result = run_verify([BAD_FIXTURES["RV601"]], checks=["RV601"])
        messages = " ".join(f.message for f in result.active)
        assert "nnz_far" in messages and "nnz_near" in messages

    def test_dtype_fixture_reports_promotion_and_downcast(self):
        result = run_verify([BAD_FIXTURES["RV602"]], checks=["RV602"])
        messages = [f.message for f in result.active]
        assert any("promotes" in m for m in messages)
        assert any("downcast" in m for m in messages)


class TestCLI:
    def test_check_flow_family_expands_and_tree_is_clean(self):
        proc = run_cli("src/repro", "--check", "flow")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_fixture_fails_the_flow_family(self):
        proc = run_cli(str(BAD_FIXTURES["RV601"]), "--checks", "flow")
        assert proc.returncode == 1
        assert "RV601" in proc.stdout

    def test_list_checks_includes_flow(self):
        proc = run_cli("--list-checks")
        assert proc.returncode == 0
        for check_id in FLOW_CHECKS:
            assert check_id in proc.stdout


class TestSarif:
    @pytest.fixture(scope="class")
    def sarif(self):
        proc = run_cli(str(BAD_FIXTURES["RV604"]), "--checks", "flow",
                       "--format", "sarif")
        assert proc.returncode == 1
        return json.loads(proc.stdout)

    def test_envelope_is_valid_sarif(self, sarif):
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"], "no runs in SARIF document"

    def test_flow_rules_in_catalogue_and_results_anchored(self, sarif):
        run = sarif["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(FLOW_CHECKS) <= rule_ids
        results = run["results"]
        assert results
        for res in results:
            assert res["ruleId"] == "RV604"
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].endswith("bad_index.py")
            assert loc["region"]["startLine"] > 0


class TestBaselineRatchet:
    def test_accepted_findings_stop_failing(self, tmp_path):
        baseline = tmp_path / "flow.json"
        write = run_cli(str(BAD_FIXTURES["RV603"]), "--checks", "flow",
                        "--baseline", str(baseline), "--write-baseline")
        assert write.returncode == 0
        proc = run_cli(str(BAD_FIXTURES["RV603"]), "--checks", "flow",
                       "--baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "stale" not in proc.stderr

    def test_stale_flow_fingerprint_warns_but_passes(self, tmp_path):
        baseline = tmp_path / "stale.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "fingerprints": [
                "RV602|gone/kernel.py|fold|float32 drift long fixed"]}))
        proc = run_cli(str(SRC / "repro" / "serve" / "sliced.py"),
                       "--checks", "flow", "--baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "stale" in proc.stderr
        assert "RV602|gone/kernel.py" in proc.stderr

    def test_new_finding_still_fails_over_a_baseline(self, tmp_path):
        baseline = tmp_path / "empty.json"
        baseline.write_text(json.dumps({"version": 1, "fingerprints": []}))
        proc = run_cli(str(BAD_FIXTURES["RV605"]), "--checks", "flow",
                       "--baseline", str(baseline))
        assert proc.returncode == 1


class TestContractCoverage:
    """The acceptance claim: contracts cover 100% of the
    SharedArrayBundle-published arrays and the donation path."""

    @pytest.fixture(scope="class")
    def index(self):
        return ContractIndex(Program.load([SRC]))

    def test_interaction_plan_schema_is_contracted(self, index):
        plan = next((q for q in index.classes
                     if q.endswith(".InteractionPlan")), None)
        assert plan is not None
        specs = index.classes[plan]
        for fld in ("target_leaves", "far_start", "far_nodes", "far_dist",
                    "near_leaf_start", "near_leaves", "near_point_start",
                    "near_points", "nodes_visited"):
            assert fld in specs, f"InteractionPlan.{fld} lost its contract"
        assert {"nrows", "nnz_far", "nnz_near"} <= index.class_dims[plan]

    def test_every_boundary_callee_is_contracted(self, index):
        for leaf in sorted(BOUNDARY_CALLEES):
            stamped = [q for q in index.functions
                       if q.rsplit(".", 1)[-1] == leaf]
            assert stamped, f"boundary callee {leaf} carries no contract"

    def test_publication_functions_are_contracted(self, index):
        for suffix in ("serve.fleet._publication_arrays",):
            stamped = [q for q in index.functions if q.endswith(suffix)]
            assert stamped, f"publisher {suffix} carries no contract"


class TestContractGrammar:
    def test_parse_spec_roundtrip(self):
        spec = parse_spec("(nrows+1,) int64 C")
        assert spec.shape == ("nrows+1",) and spec.dtype == "int64"
        assert spec.contiguous and spec.kind == "array"
        spec = parse_spec("(nnz_far,) float64 view-ok")
        assert not spec.contiguous
        spec = parse_spec("dims: nnz_far, nnz_near")
        assert spec.kind == "dims" and spec.dims == ("nnz_far", "nnz_near")

    def test_malformed_spec_raises_at_decoration(self):
        with pytest.raises(ValueError):
            parse_spec("nrows float64")  # missing the (dims) tuple
        with pytest.raises(ValueError):
            array_contract(x="(n,) float13 C")(lambda x: x)

    def test_dims_match_unknown_is_wild(self):
        assert dims_match("?", "nrows") and dims_match("nrows", "?")
        assert dims_match("nrows", "nrows")
        assert not dims_match("nrows", "nnz_far")

    def test_promotion_lattice(self):
        assert promote("float32", "float64") == "float64"
        assert promote("int64", "float32") == "float64"
        assert promote("int32", "int64") == "int64"

    def test_runtime_stamp_is_importable_truth(self):
        from repro.serve.sliced import fold_pair_terms
        specs = contracts_of(fold_pair_terms)
        assert specs is not None
        assert specs["far_terms"].dtype == "float64"
        assert specs["near_terms"].shape == ("nrows",)
        # The stamped function still behaves.
        got = fold_pair_terms(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        assert got == 3.75
