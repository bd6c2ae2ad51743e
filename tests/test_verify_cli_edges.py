"""``python -m repro.verify`` edge cases: SARIF shape, baselines, families.

Covered here (the CLI contract the CI jobs and the pre-commit hook rely
on):

* ``--format sarif`` emits a schema-valid SARIF 2.1.0 document whose rule
  catalogue matches :data:`CHECKS` exactly;
* ``--baseline`` accepts an empty-fingerprint file, reports malformed /
  truly-empty files as a usage error (exit 2) instead of a traceback,
  and *warns* about stale fingerprints without failing the run;
* ``--check`` expands family names (``effects``, ``shm``) and stays an
  alias of ``--checks``; unknown names exit 2.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis_static.verify import CHECK_FAMILIES, CHECKS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "verify_fixtures"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.verify", *args],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})


class TestSarifShape:
    @pytest.fixture(scope="class")
    def sarif(self):
        proc = run_cli(str(FIXTURES / "bad_shm.py"), "--format", "sarif")
        assert proc.returncode == 1
        return json.loads(proc.stdout)

    def test_document_envelope(self, sarif):
        assert sarif["version"] == "2.1.0"
        assert sarif["$schema"].endswith("sarif-2.1.0.json")
        assert len(sarif["runs"]) == 1

    def test_rule_catalogue_matches_checks(self, sarif):
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted(CHECKS)
        for r in rules:
            assert r["shortDescription"]["text"]
            assert r["help"]["text"]

    def test_results_are_rule_anchored_locations(self, sarif):
        results = sarif["runs"][0]["results"]
        assert results, "bad_shm fixture must produce findings"
        for res in results:
            assert res["ruleId"] in CHECKS
            assert res["level"] == "error"
            assert res["message"]["text"]
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"]
            assert loc["region"]["startLine"] >= 1
            assert loc["region"]["startColumn"] >= 1


class TestBaselineEdges:
    def test_empty_fingerprint_list_is_valid(self, tmp_path):
        baseline = tmp_path / "base.json"
        baseline.write_text('{"version": 1, "fingerprints": []}')
        proc = run_cli(str(FIXTURES / "good_shm.py"),
                       "--baseline", str(baseline))
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_truly_empty_file_is_a_usage_error_not_a_crash(self, tmp_path):
        baseline = tmp_path / "empty.json"
        baseline.write_text("")
        proc = run_cli(str(FIXTURES / "good_shm.py"),
                       "--baseline", str(baseline))
        assert proc.returncode == 2
        assert "unreadable baseline" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_baseline_file_is_a_usage_error(self, tmp_path):
        proc = run_cli(str(FIXTURES / "good_shm.py"),
                       "--baseline", str(tmp_path / "nope.json"))
        assert proc.returncode == 2
        assert "not found" in proc.stderr

    def test_stale_fingerprints_warn_but_do_not_fail(self, tmp_path):
        baseline = tmp_path / "stale.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "fingerprints": ["RV999|gone/file.py|f|finding long fixed"]}))
        proc = run_cli(str(FIXTURES / "good_shm.py"),
                       "--baseline", str(baseline))
        assert proc.returncode == 0, proc.stderr
        assert "stale" in proc.stderr
        assert "RV999|gone/file.py" in proc.stderr

    def test_matched_fingerprints_are_not_stale(self, tmp_path):
        baseline = tmp_path / "base.json"
        write = run_cli(str(FIXTURES / "bad_shm.py"),
                        "--baseline", str(baseline), "--write-baseline")
        assert write.returncode == 0
        proc = run_cli(str(FIXTURES / "bad_shm.py"),
                       "--baseline", str(baseline))
        assert proc.returncode == 0
        assert "stale" not in proc.stderr


class TestCheckFamilies:
    def test_family_names_expand(self, tmp_path):
        proc = run_cli(str(SRC / "repro"), "--check", "effects,shm")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_families_partition_the_catalogue(self):
        assert set(CHECK_FAMILIES) == {"effects", "shm"}
        members = [c for fam in CHECK_FAMILIES.values() for c in fam]
        assert sorted(members) == sorted(set(members)), "overlapping families"
        assert set(members) == set(CHECKS) - {"RV001"}

    def test_family_mixes_with_check_ids(self):
        proc = run_cli(str(FIXTURES / "good_shm.py"),
                       "--check", "effects,RV201")
        assert proc.returncode == 0

    def test_checks_flag_still_accepts_ids(self):
        proc = run_cli(str(FIXTURES / "good_shm.py"), "--checks", "RV201")
        assert proc.returncode == 0

    def test_unknown_family_or_check_exits_2(self):
        for name in ("protocols", "model"):
            proc = run_cli(str(FIXTURES / "good_shm.py"), "--check", name)
            assert proc.returncode == 2, name
            assert "unknown check" in proc.stderr
