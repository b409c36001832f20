"""CLI and reporting: exit codes, config handling, deterministic JSON."""

import json
import math

import pytest

from cstarseq import cli, reporting
from cstarseq.cli import main
from cstarseq.convergence import Question, VerdictBundle
from cstarseq.errors import ConfigError, InternalConsistencyError
from cstarseq.ideals import Decision, Verdict
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

    def test_non_finite_floats_and_empty_containers(self):
        doc = stable_dumps({"nan": math.nan, "inf": math.inf,
                            "-inf": -math.inf, "obj": {}, "list": []})
        assert doc == ('{\n  "-inf": "-Infinity",\n  "inf": "Infinity",\n'
                       '  "list": [],\n  "nan": "NaN",\n  "obj": {}\n}')

        def reject(constant):
            raise ValueError(f"bare {constant} is not strict JSON")

        assert json.loads(doc, parse_constant=reject) == {
            "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
            "obj": {}, "list": []}


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

    @pytest.mark.parametrize("argv", [["run", "--window", "64"],
                                      ["audit-paper", "--window", "64"]])
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, argv):
        out = tmp_path / "missing" / "r.json"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_unreadable_config_file_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read config file")

    def test_config_file_holding_a_list_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_library_error_is_one_error_line(self, capsys, monkeypatch):
        def failing(config):
            raise InternalConsistencyError("routes disagree")

        monkeypatch.setattr(cli, "run", failing)
        assert main(["run"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: routes disagree\n"

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


# Inputs that are no run configuration: (argv, config-file object or None).
MALFORMED = [
    (["run", "--scenario", "constant:abc"], None),
    (["run", "--scenario", "harmonic:5"], None),
    (["run", "--scenario", "constant:nan"], None),
    (["run", "--eps", "nan"], None),
    (["run"], {"eps_list": 0.1}),
    (["run"], {"window": "abc"}),
    (["run"], {"scenario": 5}),
    (["run"], {"limit": "x"}),
    (["run"], {"strict": "no"}),
    # Integers beyond the float range.
    (["run"], {"eps_list": [10 ** 400]}),
    (["run"], {"limit": 10 ** 400}),
    (["audit-paper", "--window", "4"], None),
    (["audit-paper", "--window", "-5"], None),
    (["audit-paper", "--window", "4194304"], None),
]


class TestConfigPath:
    @pytest.mark.parametrize(
        "argv, config", MALFORMED,
        ids=[(" ".join(argv) + (f" {config}" if config else ""))[:48]
             for argv, config in MALFORMED])
    def test_malformed_input_exits_two(self, capsys, tmp_path, argv, config):
        # In-process, a traceback would be an exception escaping main.
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_flags_override_config_fields(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenario": "alternating", "eps_list": [0.5], "window": 64,
            "strict": False,
        }))
        main(["run", "--config", str(path), "--eps", "0.25",
              "--window", "128", "--strict"])
        cfg = json.loads(capsys.readouterr().out)["config"]
        assert (cfg["scenario"], cfg["eps_list"], cfg["window"],
                cfg["strict"]) == ("alternating", [0.25], 128, True)

    def test_config_questions_run_in_table_order(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "questions": ["i_star_cauchy", "i_cauchy_pair"],
            "eps_list": [0.1], "window": 64,
        }))
        assert main(["run", "--config", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        want = ["i_cauchy_pair", "i_star_cauchy"]
        assert [c["question"] for c in doc["cells"]] == want
        assert doc["config"]["questions"] == want

    def test_run_calls_engines_through_module_attributes(self, monkeypatch):
        # A wrapper rebound over the module attribute sees every call.
        seen = []
        engine = reporting.i_cauchy_pair_verdict

        def counting(*args, **kwargs):
            seen.append(args[-2])
            return engine(*args, **kwargs)

        monkeypatch.setattr(reporting, "i_cauchy_pair_verdict", counting)
        run(RunConfig(eps_list=(0.1, 0.01, 0.001), window=64))
        assert seen == [0.1, 0.01, 0.001]

    def test_disagreeing_criteria_exit_one(self, monkeypatch, capsys):
        # The pair form is made to answer NotIn where the definition and
        # E_k forms answer In.
        def refuting(s, m, ideal, eps, n_max):
            return VerdictBundle(Question.ICAUCHY_PAIR, eps,
                                 Verdict(Decision.NOT_IN, "patched"))

        monkeypatch.setattr(reporting, "i_cauchy_pair_verdict", refuting)
        report = run(RunConfig(eps_list=(0.1,), window=64))
        assert report.exit_code == 1
        assert report.conflicts == ({"epsilon": 0.1, "decisions": {
            "i_cauchy_definition": "in", "i_cauchy_pair": "not_in",
            "i_cauchy_ek": "in"}},)
        assert main(["run", "--eps", "0.1", "--window", "64"]) == 1
        assert json.loads(capsys.readouterr().out)["exit_code"] == 1

    def test_table_keeps_whole_certificates(self):
        report = run(RunConfig(scenario="block-harmonic", metric="scaled",
                               ideal="block", window=512))
        lines = report.table().splitlines()
        certificates = [c["certificate"] for c in report.cells]
        assert max(map(len, certificates)) > 44
        for cell in report.cells:
            assert any(line.startswith(cell["question"])
                       and line.endswith(cell["certificate"])
                       for line in lines)


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
