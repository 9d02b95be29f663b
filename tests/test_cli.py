import json

import pytest

from wlift.cli import main


SUBCOMMANDS = ["synth", "scores", "complete", "tune", "phase", "noise-sweep",
               "validate-basis"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_zero(command, capsys):
    assert main([command, "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert main(["synth", "--frobnicate"]) == 1


def test_synth_stdout(capsys):
    assert main(["synth", "--n", "8", "--k", "2", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "8"
    assert lines[3] == "# samples"
    assert len(lines) == 12  # N + 2 components + marker + 8 samples


def test_scores_output_and_sidecar(tmp_path):
    out = tmp_path / "scores.txt"
    assert main(["scores", "--structure", "hankel", "--n", "21", "--d", "10",
                 "--k", "2", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 22  # 21 scores + R_L footer
    assert lines[-1].startswith("# R_L ")
    sidecar = json.loads((tmp_path / "scores.txt.config.json").read_text())
    assert sidecar["n"] == 21 and sidecar["structure"] == "hankel"


def test_complete_reports_success(capsys):
    assert main(["complete", "--structure", "hankel", "--n", "21", "--d", "10",
                 "--k", "1", "--m", "15", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rel_error ")
    assert "success true" in out


def test_complete_missing_required_key_is_usage_error(capsys):
    # no --m and no config supplying it
    assert main(["complete", "--structure", "hankel", "--n", "21",
                 "--d", "10", "--k", "1"]) == 1


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": "hankel", "n": 21, "d": 10,
                               "k": 1, "m": 15, "seed": 2}))
    assert main(["complete", "--config", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert main(["complete", "--config", str(cfg), "--seed", "2"]) == 0
    assert capsys.readouterr().out == first


def test_config_file_invalid_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["complete", "--config", str(cfg)]) == 1


def test_config_file_missing(tmp_path):
    assert main(["complete", "--config", str(tmp_path / "none.json")]) == 1


def test_tune_output_shape(capsys):
    assert main(["tune", "--structure", "hankel", "--n", "21", "--d", "10",
                 "--k", "2", "--m", "12", "--seed", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# objective baseline"
    assert lines[2] == "# left diagonal"
    assert len(lines[3].split()) == 10
    assert len(lines[5].split()) == 12


def test_validate_basis_all_pass(capsys):
    assert main(["validate-basis", "--structure", "double-hankel",
                 "--n", "21", "--d", "14"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(ln.startswith("PASS ") for ln in lines)


def test_phase_requires_out(capsys):
    assert main(["phase", "--structure", "hankel", "--n", "21", "--d", "10",
                 "--trials", "1"]) == 1


def test_phase_invalid_grid_is_usage_error(tmp_path):
    cfg = tmp_path / "grid.json"
    # M above N; then a separation no K = 4 draw can meet
    for grid in ({"sample_counts": [40], "sparsity_levels": [1]},
                 {"sample_counts": [10], "sparsity_levels": [4],
                  "min_separation": 0.3}):
        cfg.write_text(json.dumps({"n": 21, "d": 10, "trials": 1, **grid}))
        assert main(["phase", "--config", str(cfg),
                     "--out", str(tmp_path / "x.dat")]) == 1
    assert not (tmp_path / "x.dat").exists()


def test_phase_emits_dat_and_sidecars(tmp_path):
    out = tmp_path / "mesh.dat"
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"n": 21, "d": 10, "structure": "hankel",
                               "sample_counts": [10, 21],
                               "sparsity_levels": [1, 2], "trials": 2}))
    assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
    body = out.read_text().splitlines()
    assert body[0] == "M K C"
    assert len(body) == 5
    assert (tmp_path / "mesh.dat.meta.json").exists()
    assert (tmp_path / "mesh.dat.config.json").exists()


def test_phase_sidecar_reproduces_run(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"n": 21, "d": 10, "structure": "hankel",
                               "sample_counts": [12, 21],
                               "sparsity_levels": [1], "trials": 2,
                               "base_seed": 9}))
    out1 = tmp_path / "a.dat"
    out2 = tmp_path / "b.dat"
    assert main(["phase", "--config", str(cfg), "--out", str(out1)]) == 0
    # rerun from the emitted sidecar alone
    assert main(["phase", "--config", str(tmp_path / "a.dat.config.json"),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_noise_sweep_stdout(capsys):
    assert main(["noise-sweep", "--structure", "hankel", "--n", "21",
                 "--d", "10", "--k", "1", "--m", "15", "--trials", "1",
                 "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "eta mean_lifted_error"
    assert len(lines) == 4  # three default noise levels
