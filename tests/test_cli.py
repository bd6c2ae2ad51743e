"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


@pytest.fixture(scope="module")
def sim_backend_run(tmp_path_factory):
    """``--backend sim -P 2`` on a small molecule: exit code and record."""
    out = tmp_path_factory.mktemp("cli") / "bench.json"
    code = main(["--backend", "sim", "-P", "2", "--natoms", "300",
                 "--bench-out", str(out)])
    return code, json.loads(out.read_text())


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig8" in out and "table1" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "all pass" in out
        assert "Lonestar4" in out

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "OCT_MPI+CILK" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_sim_backend_exits_zero(self, sim_backend_run):
        code, record = sim_backend_run
        assert code == 0
        assert record["backend"] == "sim" and record["natoms"] == 300
        assert sorted(record["timings"]) == ["1", "2"]
        assert all(t["sim_seconds"] > 0 for t in record["timings"].values())

    def test_sim_backend_energy_equal_across_p(self, sim_backend_run):
        _, record = sim_backend_run
        energies = {t["energy"] for t in record["timings"].values()}
        assert len(energies) == 1
        assert record["max_rel_energy_drift"] == 0.0
