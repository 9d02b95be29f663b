import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from wlift.cli import build_parser, main
from wlift.experiments import PhaseGrid, SuccessSurface, _draw, noise_sweep
from wlift.lifting import hankel_basis
from wlift.scores import subspace_of
from wlift.weights import tune_diagonal_weights


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


def test_complete_solver_error_is_numerical_failure(monkeypatch, capsys):
    import wlift.experiments

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(wlift.experiments, "complete", failing)
    assert main(["complete", "--structure", "hankel", "--n", "21", "--d", "10",
                 "--k", "1", "--m", "15", "--seed", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err and "LinAlgError" in captured.err


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


def test_config_file_unknown_key_is_usage_error(tmp_path, capsys):
    # a misspelled max_iters must not silently run the default solve
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": "hankel", "n": 21, "d": 10,
                               "k": 1, "m": 15, "seed": 2, "max_iter": 1}))
    assert main(["complete", "--config", str(cfg)]) == 1
    assert "max_iter" in capsys.readouterr().err


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


def test_tune_observes_the_trial_draw(capsys):
    # tune and complete with one seed see one sample set; the pilot is the
    # truth's subspace
    assert main(["tune", "--structure", "hankel", "--n", "21", "--d", "10",
                 "--k", "2", "--m", "12", "--seed", "4"]) == 0
    y, sset = _draw(21, 2, 12, 4)
    basis = hankel_basis(21, 10)
    tuned = tune_diagonal_weights(basis, sset, subspace_of(basis, y))
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == f"{tuned.objective:.6f} {tuned.baseline:.6f}"
    assert lines[3] == " ".join(f"{v:.6f}" for v in tuned.weights.left_diag)
    assert lines[5] == " ".join(f"{v:.6f}" for v in tuned.weights.right_diag)


def test_validate_basis_all_pass(capsys):
    assert main(["validate-basis", "--structure", "double-hankel",
                 "--n", "21", "--d", "14"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(ln.startswith("PASS ") for ln in lines)


def test_validate_basis_unbuildable_is_usage_error(capsys):
    # building the basis is the check, so a basis that cannot be built
    # (pencil 9 > N = 5) prints no PASS line and exits as a usage error
    assert main(["validate-basis", "--structure", "hankel", "--n", "5",
                 "--d", "9"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: pencil must lie")


def test_phase_requires_out(capsys):
    assert main(["phase", "--structure", "hankel", "--n", "21", "--d", "10",
                 "--trials", "1"]) == 1


def test_phase_invalid_grid_is_usage_error(tmp_path):
    cfg = tmp_path / "grid.json"
    # M above N; M below 1 after a valid cell; a pencil above N; a
    # separation no K = 4 draw can meet; one that K = 10 uniform draws meet
    # with probability 1e-9; an empty axis; a negative separation
    for grid in ({"sample_counts": [40], "sparsity_levels": [1]},
                 {"n": 59, "d": 30, "sample_counts": [40, 0],
                  "sparsity_levels": [2]},
                 {"d": 30, "sample_counts": [10], "sparsity_levels": [1]},
                 {"sample_counts": [10], "sparsity_levels": [4],
                  "min_separation": 0.3},
                 {"sample_counts": [10], "sparsity_levels": [10],
                  "min_separation": 0.09},
                 {"sample_counts": [], "sparsity_levels": [1]},
                 {"sample_counts": [10], "sparsity_levels": []},
                 {"sample_counts": [10], "sparsity_levels": [1],
                  "min_separation": -0.5}):
        cfg.write_text(json.dumps({"n": 21, "d": 10, "trials": 1, **grid}))
        assert main(["phase", "--config", str(cfg),
                     "--out", str(tmp_path / "x.dat")]) == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["grid.json"]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_phase_without_workers_is_usage_error(workers, tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"n": 21, "d": 10, "trials": 1,
                               "sample_counts": [15], "sparsity_levels": [1]}))
    out = tmp_path / "x.dat"
    assert main(["phase", "--config", str(cfg), "--workers", workers,
                 "--out", str(out)]) == 1
    assert "worker" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    # every trial would be a caught LinAlgError, giving a silent 0 rate
    ("phase", {"n": 21, "d": 10, "sample_counts": [15],
               "sparsity_levels": [1], "trials": 1, "rel_tol": float("nan")}),
    ("complete", {"structure": "hankel", "n": 21, "d": 10, "k": 1, "m": 15,
                  "max_iters": 2.5}),
    ("phase", {"n": 21, "d": 10, "sample_counts": [15],
               "sparsity_levels": [1], "trials": 2.5}),
    # values of the wrong type for their flag, or outside its range
    ("noise-sweep", {"n": 21, "d": 10, "k": 1, "m": 15, "trials": 0}),
    ("noise-sweep", {"n": 21, "d": 10, "k": 1, "m": 15, "trials": 2.5}),
    ("noise-sweep", {"n": 21, "d": 10, "k": 1, "m": 15, "trials": 1,
                     "etas": 0.001}),
    ("complete", {"structure": "hankel", "n": 21, "d": 10, "k": 1,
                  "m": 15.5}),
    ("phase", {"n": 21, "d": 10, "sample_counts": 15,
               "sparsity_levels": [1], "trials": 1}),
    ("synth", {"n": "21", "k": 1}),
    # a misspelled weighting must not silently run identity
    ("complete", {"structure": "hankel", "n": 21, "d": 10, "k": 1, "m": 15,
                  "weighting": "two-stage"}),
    # a config that is not an object, and keys no flag types
    ("complete", [1]),
    ("phase", {"n": 21, "d": 10, "sample_counts": [15],
               "sparsity_levels": [1], "trials": 1, "min_separation": "x"}),
    ("complete", {"structure": "hankel", "n": 21, "d": 10, "k": 1, "m": 15,
                  "rel_tol": True}),
    # no noise level at all would print only the header row
    ("noise-sweep", {"n": 21, "d": 10, "k": 1, "m": 15, "trials": 1,
                     "etas": []}),
    # JSON's Infinity, caught before the first level's solves
    ("noise-sweep", {"n": 21, "d": 10, "k": 1, "m": 15, "trials": 1,
                     "etas": [0.001, float("inf")]}),
], ids=["phase-nan-rel-tol", "complete-fractional-max-iters",
        "phase-fractional-trials", "noise-sweep-zero-trials",
        "noise-sweep-fractional-trials", "noise-sweep-scalar-etas",
        "complete-fractional-m", "phase-scalar-sample-counts",
        "synth-string-n", "complete-unknown-weighting",
        "complete-list-config", "phase-string-min-separation",
        "complete-bool-rel-tol", "noise-sweep-empty-etas",
        "noise-sweep-infinite-eta"])
def test_non_finite_or_fractional_config_is_usage_error(command, config,
                                                         tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.txt"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_key_is_named(capsys):
    assert main(["complete", "--n", "21", "--d", "10", "--k", "2",
                 "--m", "30"]) == 1
    assert "missing config key 'structure'" in capsys.readouterr().err


# a value for every flag that sets a config key
FLAG_VALUES = {"--structure": "hankel", "--n": 21, "--d": 10, "--k": 1,
               "--m": 15, "--seed": 2, "--weighting": "identity",
               "--trials": 1}
NOT_CONFIG = {"--help", "--config", "--out", "--workers"}
# commands whose --seed is the base seed of their cell seeds
BASE_SEEDED = {"phase", "noise-sweep"}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_config_flag_reaches_sidecar(command, tmp_path):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = [a.option_strings[-1]
             for a in subparsers.choices[command]._actions
             if a.option_strings[-1] not in NOT_CONFIG]
    out = tmp_path / "out.txt"
    argv = [command, "--out", str(out)]
    expected = {}
    for flag in flags:
        argv += [flag, str(FLAG_VALUES[flag])]
        key = flag[2:]
        if flag == "--seed" and command in BASE_SEEDED:
            key = "base_seed"
        expected[key] = FLAG_VALUES[flag]
    if command == "phase":
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"sample_counts": [15],
                                   "sparsity_levels": [1]}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    sidecar = json.loads((tmp_path / "out.txt.config.json").read_text())
    assert {key: sidecar.get(key) for key in expected} == expected


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


def test_phase_defaults_are_phase_grids(tmp_path, monkeypatch):
    # the CLI adds no default of its own: an empty config is PhaseGrid()
    grids = []

    def sweep(grid, workers):
        grids.append(grid)
        return SuccessSurface(grid, np.zeros((len(grid.sparsity_levels),
                                              len(grid.sample_counts))))

    monkeypatch.setattr("wlift.cli.phase_transition", sweep)
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    assert main(["phase", "--config", str(cfg),
                 "--out", str(tmp_path / "mesh.dat")]) == 0
    assert grids == [PhaseGrid()]


def test_noise_sweep_defaults_are_noise_sweeps(capsys):
    assert main(["noise-sweep", "--trials", "1"]) == 0
    rows = [line.split() for line in
            capsys.readouterr().out.strip().splitlines()[1:]]
    assert rows == [[f"{eta:.6g}", f"{err:.6f}"]
                    for eta, err in noise_sweep(trials=1)]


GOLDEN_DIR = Path(__file__).parent / "golden"
HANKEL_21 = ["--structure", "hankel", "--n", "21", "--d", "10"]
# One small invocation per command: its flags and its --config file, if any.
# tests/golden/<command> holds the exact files it writes; any changed byte
# there is a change to the CLI's output that a rerun from an old sidecar
# would not reproduce.
GOLDEN = {
    "synth": (["--n", "12", "--k", "2", "--seed", "3"], None),
    "scores": (["--structure", "double-hankel", "--n", "21", "--d", "14",
                "--k", "2", "--seed", "1"], None),
    "complete": ([*HANKEL_21, "--k", "3", "--m", "10", "--seed", "5",
                  "--weighting", "two_stage"], {"max_iters": 500}),
    "tune": ([*HANKEL_21, "--k", "2", "--m", "12", "--seed", "4"], None),
    "phase": (["--seed", "3"],
              {"n": 21, "d": 10, "sample_counts": [9, 11],
               "sparsity_levels": [2, 3], "trials": 3,
               "min_separation": 0.05, "max_iters": 500}),
    "noise-sweep": (["--structure", "double-hankel", "--n", "21", "--d", "14",
                     "--k", "1", "--m", "15", "--trials", "2", "--seed", "1"],
                    {"etas": [0.001, 0.01]}),
    "validate-basis": (["--structure", "double-hankel", "--n", "21",
                        "--d", "14"], None),
}


def _write_golden(command, tmp_path, *extra):
    """Run command's golden invocation plus extra flags and check every
    file it writes against tests/golden/<command>; return (argv, out, golden).
    """
    flags, config = GOLDEN[command]
    argv = [command, *flags, *extra]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / ("mesh.dat" if command == "phase" else "out.txt")
    assert main([*argv, "--out", str(out)]) == 0
    golden = GOLDEN_DIR / command
    written = sorted(p.name for p in out_dir.iterdir())
    assert written == sorted(p.name for p in golden.iterdir())
    for name in written:
        assert (out_dir / name).read_bytes() == (golden / name).read_bytes(), name
    return argv, out, golden


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_golden_output_bytes(command, tmp_path, capsys):
    argv, out, golden = _write_golden(command, tmp_path)
    if command != "phase":
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == (golden / out.name).read_bytes()


def test_phase_golden_output_bytes_with_a_pool(tmp_path):
    # --workers is not configuration: a pool writes the serial run's bytes
    _write_golden("phase", tmp_path, "--workers", "3")


@pytest.mark.parametrize("command, key, config", [
    ("complete", "min_separation",
     {"structure": "hankel", "n": 21, "d": 10, "k": 1, "m": 15,
      "min_separation": 0.3}),
    ("noise-sweep", "weighting",
     {"n": 21, "d": 10, "k": 1, "m": 15, "trials": 1,
      "weighting": "two_stage"}),
    ("synth", "m", {"n": 12, "k": 2, "m": 5}),
    ("tune", "max_iters",
     {"structure": "hankel", "n": 21, "d": 10, "k": 2, "m": 12,
      "max_iters": 10}),
    ("validate-basis", "k", {"structure": "hankel", "n": 21, "d": 10, "k": 2}),
    # success is the experiment's fixed threshold, no solver setting
    ("noise-sweep", "success_threshold",
     {"n": 21, "d": 10, "k": 1, "m": 15, "trials": 1,
      "success_threshold": 0.5}),
])
def test_key_only_another_command_reads_is_usage_error(command, key, config,
                                                       tmp_path, capsys):
    # the command would ignore the key, yet record it in the sidecar
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.txt"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.txt.config.json").exists()


def _phase_without_sweep(tmp_path, monkeypatch):
    """A 1-cell phase config; the sweep must not run."""
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr("wlift.cli.phase_transition", sweep)
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"n": 21, "d": 10, "trials": 1,
                               "sample_counts": [15], "sparsity_levels": [1]}))
    return cfg


def test_out_in_missing_directory_is_usage_error(tmp_path, monkeypatch,
                                                 capsys):
    cfg = _phase_without_sweep(tmp_path, monkeypatch)
    assert main(["phase", "--config", str(cfg),
                 "--out", str(tmp_path / "missing" / "x.dat")]) == 1
    assert "usage error" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["grid.json"]


def test_phase_out_that_is_a_directory_fails_before_the_sweep(
        tmp_path, monkeypatch, capsys):
    cfg = _phase_without_sweep(tmp_path, monkeypatch)
    target = tmp_path / "existing"
    target.mkdir()
    assert main(["phase", "--config", str(cfg), "--out", str(target)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["existing",
                                                          "grid.json"]
    assert not any(target.iterdir())


def test_out_that_is_a_directory_is_usage_error(tmp_path, capsys):
    assert main(["synth", "--n", "5", "--k", "1", "--out", str(tmp_path)]) == 1
    assert "usage error" in capsys.readouterr().err
