"""repro-verify: the whole-program static pass must (a) prove the
executors and energy kernels effect-free on the real tree, (b) fire each
check on its deliberately-broken fixture, and (c) keep the repo clean at
merge (zero unsuppressed findings over ``src/repro``)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis_static.baseline import (BaselineError, load_baseline,
                                            write_baseline)
from repro.analysis_static.verify import (CHECKS, declared_effects_of,
                                          declares_effects, run_verify)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "verify_fixtures"
SRC = REPO / "src"

#: check id -> fixture that must trigger it (and nothing outside the set).
BAD_FIXTURES = {
    "RV101": (FIXTURES / "bad_pure.py", {"RV101"}),
    "RV102": (FIXTURES / "bad_declared.py", {"RV102"}),
    "RV201": (FIXTURES / "bad_shm.py",
              {"RV201", "RV202", "RV203", "RV204", "RV205", "RV206"}),
}


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.verify", *args],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})


@pytest.fixture(scope="module")
def src_result():
    """One whole-program run over the real tree, shared by the proofs."""
    return run_verify([SRC / "repro"])


class TestRepoIsClean:
    def test_zero_unsuppressed_findings(self, src_result):
        active = src_result.active
        assert active == [], "\n".join(f.format() for f in active)

    def test_every_suppression_has_a_reason(self, src_result):
        for f in src_result.findings:
            if f.suppressed:
                assert f.suppress_reason.strip(), f.format()


class TestExecutorPurityProof:
    """The acceptance claim: plan executors and energy kernels are
    statically effect-free -- no clock, RNG, IO or shared-memory effect
    on any call path."""

    PURE_FUNCTIONS = (
        "repro.plan.executor.execute_born_plan",
        "repro.plan.executor.execute_epol_plan",
        "repro.core.energy.approx_epol",
        "repro.core.energy.epol_octree",
    )

    @pytest.mark.parametrize("qualname", PURE_FUNCTIONS)
    def test_proved_effect_free(self, src_result, qualname):
        assert qualname in src_result.effects.inferred
        assert src_result.effects_of(qualname) == frozenset()

    def test_fleet_run_sliced_carries_its_effects(self, src_result):
        """The proof is not vacuous: the process fleet's sliced path,
        which times itself and owns a scratch segment, is seen as
        effectful."""
        effs = src_result.effects_of(
            "repro.serve.fleet.ProcessFleet.run_sliced")
        assert "CLOCK" in effs
        assert {"SHM_CREATE", "SHM_UNLINK", "MUTATES_SHARED"} <= effs

    def test_builder_is_clock_free_without_injected_timer(self, src_result):
        assert "CLOCK" not in src_result.effects_of(
            "repro.plan.builder.build_epol_plan")
        assert "CLOCK" not in src_result.effects_of(
            "repro.plan.builder.build_born_plan")


class TestFixtures:
    @pytest.mark.parametrize("check_id", sorted(BAD_FIXTURES))
    def test_bad_fixture_fires(self, check_id):
        path, expected = BAD_FIXTURES[check_id]
        result = run_verify([path])
        fired = {f.check for f in result.active}
        assert check_id in fired, f"{check_id} fixture produced {fired}"
        assert fired <= expected, f"unexpected checks: {fired - expected}"

    @pytest.mark.parametrize("name", ["good_shm.py"])
    def test_good_fixture_is_clean(self, name):
        result = run_verify([FIXTURES / name])
        assert result.active == [], \
            "\n".join(f.format() for f in result.active)

    def test_breaking_a_clean_function_is_caught(self, tmp_path):
        """Regression: dropping the attacher's close from the *passing*
        fixture must produce RV201."""
        good = (FIXTURES / "good_shm.py").read_text()
        broken = good.replace(
            "    value = seg.buf[0]\n    seg.close()\n",
            "    value = seg.buf[0]\n", 1)
        assert broken != good
        target = tmp_path / "broken_shm.py"
        target.write_text(broken)
        fired = {f.check for f in run_verify([target]).active}
        assert "RV201" in fired


class TestSuppressions:
    def test_reasoned_allow_suppresses_and_bare_allow_is_rv001(self):
        result = run_verify([FIXTURES / "suppressed.py"])
        by_check = {}
        for f in result.findings:
            by_check.setdefault(f.check, []).append(f)
        quiet, noisy = sorted(by_check["RV101"], key=lambda f: f.line)
        assert quiet.suppressed
        assert "reasoned waiver" in quiet.suppress_reason
        assert not noisy.suppressed  # allow without a reason does not count
        assert [f.suppressed for f in by_check["RV001"]] == [False]

    def test_unknown_check_in_allow_is_rv001(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("# repro-verify: allow=RV999(nope)\nx = 1\n")
        fired = [f.check for f in run_verify([target]).active]
        assert fired == ["RV001"]


class TestAnnotations:
    def test_decorator_is_runtime_noop_and_introspectable(self):
        @declares_effects("CLOCK", "SHM_ATTACH")
        def f() -> int:
            return 3

        assert f() == 3
        assert declared_effects_of(f) == frozenset({"CLOCK", "SHM_ATTACH"})

    def test_invalid_effect_rejected_at_decoration(self):
        with pytest.raises(ValueError):
            declares_effects("NETWORK")
        with pytest.raises(ValueError):
            declares_effects("COLLECTIVE(allreduce)")


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, {"b|y", "a|x"})
        assert load_baseline(path) == {"a|x", "b|y"}
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["fingerprints"] == sorted(payload["fingerprints"])

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(BaselineError):
            load_baseline(path)
        with pytest.raises(BaselineError):
            load_baseline(tmp_path / "missing.json")


class TestCLI:
    def test_repo_gate_exits_zero(self):
        proc = run_cli("src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro-verify: clean" in proc.stdout

    def test_bad_fixture_exits_one(self):
        proc = run_cli(str(BAD_FIXTURES["RV101"][0]))
        assert proc.returncode == 1
        assert "RV101" in proc.stdout

    def test_json_format(self):
        proc = run_cli(str(BAD_FIXTURES["RV101"][0]), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["count"] == len(payload["findings"]) == 1
        first = payload["findings"][0]
        assert {"check", "slug", "path", "line", "col", "function",
                "message", "hint", "fingerprint"} <= set(first)

    def test_sarif_format(self):
        proc = run_cli(str(BAD_FIXTURES["RV201"][0]), "--format", "sarif")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-verify"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(CHECKS)
        assert {r["ruleId"] for r in run["results"]} \
            == BAD_FIXTURES["RV201"][1]

    def test_checks_filter(self):
        proc = run_cli(str(BAD_FIXTURES["RV201"][0]), "--checks", "RV101")
        assert proc.returncode == 0  # shm fixture has no purity issue

    def test_unknown_check_rejected(self):
        proc = run_cli("--checks", "RV999")
        assert proc.returncode == 2

    def test_list_checks(self):
        proc = run_cli("--list-checks")
        assert proc.returncode == 0
        for check_id in CHECKS:
            assert check_id in proc.stdout

    def test_baseline_ratchets(self, tmp_path):
        base = tmp_path / "baseline.json"
        fixture = str(BAD_FIXTURES["RV101"][0])
        wrote = run_cli(fixture, "--baseline", str(base), "--write-baseline")
        assert wrote.returncode == 0
        again = run_cli(fixture, "--baseline", str(base))
        assert again.returncode == 0
        assert "baselined finding(s) hidden" in again.stdout

    def test_write_baseline_requires_baseline(self):
        proc = run_cli("--write-baseline")
        assert proc.returncode == 2
