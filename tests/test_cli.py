"""CLI and reporting: exit codes, config handling, deterministic JSON."""

import json

import pytest

from cstarseq.cli import main
from cstarseq.errors import ConfigError
from cstarseq.reporting import (
    RunConfig,
    audit_json,
    audit_paper,
    default_window,
    list_scenarios,
    run,
    stable_dumps,
)


class TestStableDumps:
    def test_sorted_keys_and_float_format(self):
        doc = stable_dumps({"b": 0.1, "a": [1, 2.0, True, None, "x"]})
        assert doc.index('"a"') < doc.index('"b"')
        assert "0.10000000000000001" in doc
        assert json.loads(doc) == {
            "a": [1, 2.0, True, None, "x"], "b": 0.1}

    def test_escaping(self):
        doc = stable_dumps({"k": 'a"b\\c\nd'})
        assert json.loads(doc) == {"k": 'a"b\\c\nd'}

    def test_deterministic(self):
        payload = {"x": [0.3, {"z": 1e-17, "a": -2.5}], "y": "s"}
        assert stable_dumps(payload) == stable_dumps(dict(payload))


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig().validated()
        assert cfg.window == default_window()

    def test_bad_fields_raise(self):
        with pytest.raises(ConfigError):
            RunConfig(scenario="bogus").validated()
        with pytest.raises(ConfigError):
            RunConfig(metric="bogus").validated()
        with pytest.raises(ConfigError):
            RunConfig(ideal="bogus").validated()
        with pytest.raises(ConfigError):
            RunConfig(eps_list=()).validated()
        with pytest.raises(ConfigError):
            RunConfig(eps_list=(-1.0,)).validated()
        with pytest.raises(ConfigError):
            RunConfig(window=4).validated()

    def test_env_window_override(self, monkeypatch):
        monkeypatch.setenv("CSTAR_SEQ_WINDOW", "128")
        assert RunConfig().validated().window == 128
        monkeypatch.setenv("CSTAR_SEQ_WINDOW", "abc")
        with pytest.raises(ConfigError):
            RunConfig().validated()


class TestRun:
    def test_clean_run_exit_zero(self):
        report = run(RunConfig(window=512))
        assert report.exit_code == 0
        assert report.unknown_count == 0
        assert not report.conflicts

    def test_strict_unknown_exit_three(self):
        report = run(RunConfig(
            scenario="block-harmonic", metric="scaled", ideal="density0",
            eps_list=(0.1,), window=512, strict=True,
        ))
        assert report.unknown_count > 0
        assert report.exit_code == 3

    def test_non_strict_unknown_exit_zero(self):
        report = run(RunConfig(
            scenario="block-harmonic", metric="scaled", ideal="density0",
            eps_list=(0.1,), window=512,
        ))
        assert report.exit_code == 0

    def test_report_json_excludes_wall_time(self):
        report = run(RunConfig(window=512))
        doc = stable_dumps(report.to_json())
        assert "wall" not in doc
        assert report.wall_seconds >= 0.0

    def test_report_byte_determinism(self):
        cfg = RunConfig(scenario="harmonic", metric="diag", window=512)
        a = stable_dumps(run(cfg).to_json())
        b = stable_dumps(run(cfg).to_json())
        assert a == b

    def test_induced_metric_names(self):
        for name in ("induced:scaled-diag", "induced:real-abs"):
            report = run(RunConfig(metric=name, window=512))
            assert report.exit_code == 0


class TestCliMain:
    def test_run_exit_codes(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = main(["run", "--window", "512", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["exit_code"] == 0

    def test_run_table(self, capsys):
        code = main(["run", "--window", "512", "--table"])
        assert code == 0
        assert "i_cauchy_definition" in capsys.readouterr().out

    def test_block_pair_cut_beyond_a_billion(self, capsys):
        # J = 4 000 000 001 blocks, one run in the witness certificate.
        code = main(["run", "--scenario", "block-harmonic",
                     "--metric", "scaled", "--ideal", "block",
                     "--eps", "1e-9", "--window", "4096"])
        assert code == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        pair = next(c for c in cells if c["question"] == "i_cauchy_pair")
        assert pair["decision"] == "in"
        assert pair["cut_index"] == 4_000_000_001

    def test_config_error_exit_two(self, capsys):
        assert main(["run", "--metric", "bogus"]) == 2

    def test_strict_exit_three(self, capsys):
        code = main(["run", "--scenario", "block-harmonic",
                     "--metric", "scaled", "--ideal", "density0",
                     "--eps", "0.1", "--window", "512", "--strict"])
        assert code == 3

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "harmonic", "metric": "diag", "ideal": "fin",
            "eps_list": [0.1], "window": 512,
        }))
        assert main(["run", "--config", str(cfg)]) == 0

    def test_config_file_unknown_field(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert main(["run", "--config", str(cfg)]) == 2

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("harmonic", "block-harmonic", "discrete"):
            assert name in out

    def test_audit_paper_passes(self, capsys):
        assert main(["audit-paper", "--window", "8192"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "[PASS]" in out


class TestAuditDeterminism:
    def test_audit_json_byte_identical(self):
        a = audit_json(audit_paper(window=8192))
        b = audit_json(audit_paper(window=8192))
        assert a == b
        assert "wall" not in a

    def test_scenario_listing_shape(self):
        listing = list_scenarios()
        assert "block-harmonic" in listing["scenarios"]
        assert "induced:real-abs" in listing["metrics"]
