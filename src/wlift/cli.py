"""Command-line front end: synthesis, scoring, completion, tuning, sweeps.

Every command echoes its fully resolved configuration to a JSON sidecar
next to the output so any run can be reproduced byte-for-byte. Numeric
output is fixed at six decimals for diff-stable regression checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import experiments
from .experiments import (PhaseGrid, build_basis, emit_dat, noise_sweep,
                          phase_transition, run_trial)
from .lifting import validate_basis
from .scores import (SingularWeightsError, leverage_scores, lifting_coefficient,
                     scores_to_text, subspace_of)
from .signal import mixture_to_text, synthesize
from .solver import SolverConfig
from .weights import tune_diagonal_weights

USAGE_ERROR = 1
NUMERICAL_ERROR = 2

SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
# every key some command reads; anything else in a --config file is a typo
CONFIG_KEYS = frozenset((
    "structure", "n", "d", "k", "m", "seed", "base_seed", "trials",
    "weighting", "sample_counts", "sparsity_levels", "min_separation",
    "etas") + SOLVER_KEYS)
LIST_KEYS = ("sample_counts", "sparsity_levels", "etas")


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _resolve(args) -> dict:
    """The --config file's keys, overridden by every flag given a value.

    A config value must have the type its flag declares, a LIST_KEYS value
    must be a list of numbers; SolverConfig and PhaseGrid check the rest.
    """
    config = {} if args.config is None \
        else json.loads(Path(args.config).read_text())
    if not isinstance(config, dict):
        raise ValueError("a --config file must hold a JSON object, "
                         f"not {type(config).__name__}")
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    kinds = {a.dest: a.type for p in sub.choices.values()
             for a in p._actions if a.type is not None}
    for key, value in config.items():
        # JSON loads exact types: type(True) is bool, not int
        if key in LIST_KEYS:
            ok = type(value) is list and all(type(v) in (int, float) for v in value)
        else:
            ok = type(value) is kinds.get(key, type(value))
        if not ok:
            raise ValueError(f"config key {key!r} cannot be {value!r}")
    flags = {key: value for key, value in vars(args).items()
             if key in CONFIG_KEYS and value is not None}
    return {**config, **flags}


def _write_sidecar(out_path, resolved: dict) -> None:
    if out_path is None:
        return
    side = Path(str(out_path) + ".config.json")
    side.write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def _solver_from(resolved: dict) -> SolverConfig:
    return SolverConfig(**{k: resolved[k] for k in SOLVER_KEYS
                           if k in resolved})


def _emit(out_path, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _seeded_mixture(resolved: dict):
    rng = np.random.default_rng(resolved.get("seed", 0))
    return experiments.random_mixture(resolved["n"], resolved.get("k", 1), rng)


def cmd_synth(args) -> int:
    resolved = _resolve(args)
    mixture = _seeded_mixture(resolved)
    y = synthesize(mixture)
    lines = [mixture_to_text(mixture).rstrip(), "# samples"]
    lines += [f"{v.real:.6f} {v.imag:.6f}" for v in y]
    _emit(args.out, "\n".join(lines) + "\n")
    _write_sidecar(args.out, resolved)
    return 0


def cmd_scores(args) -> int:
    resolved = _resolve(args)
    basis = build_basis(resolved["structure"], resolved["n"], resolved["d"])
    sub = subspace_of(basis, synthesize(_seeded_mixture(resolved)))
    mu = leverage_scores(basis, sub)
    text = scores_to_text(mu)
    text += f"# R_L {_fmt(lifting_coefficient(basis))}\n"
    _emit(args.out, text)
    _write_sidecar(args.out, resolved)
    return 0


def cmd_complete(args) -> int:
    resolved = _resolve(args)
    outcome = run_trial(resolved["n"], resolved["structure"], resolved["d"],
                        resolved.get("weighting", "identity"),
                        resolved["m"], resolved["k"], resolved.get("seed", 0),
                        _solver_from(resolved))
    if outcome.error_code is not None:
        sys.stderr.write(f"completion failed: {outcome.error_code}\n")
        return NUMERICAL_ERROR
    text = (f"rel_error {_fmt(outcome.rel_error)}\n"
            f"success {str(outcome.success).lower()}\n")
    _emit(args.out, text)
    _write_sidecar(args.out, resolved)
    return 0


def cmd_tune(args) -> int:
    resolved = _resolve(args)
    basis = build_basis(resolved["structure"], resolved["n"], resolved["d"])
    y, sset = experiments._draw(resolved["n"], resolved.get("k", 1),
                                resolved["m"], resolved.get("seed", 0))
    try:
        pilot = subspace_of(basis, y)
        tuned = tune_diagonal_weights(basis, sset, pilot)
    except (SingularWeightsError, ValueError) as exc:
        sys.stderr.write(f"tuning failed: {exc}\n")
        return NUMERICAL_ERROR
    lines = ["# objective baseline",
             f"{tuned.objective:.6f} {tuned.baseline:.6f}",
             "# left diagonal",
             " ".join(_fmt(v) for v in tuned.weights.left_diag),
             "# right diagonal",
             " ".join(_fmt(v) for v in tuned.weights.right_diag)]
    _emit(args.out, "\n".join(lines) + "\n")
    _write_sidecar(args.out, resolved)
    return 0


def cmd_phase(args) -> int:
    if args.out is None:
        sys.stderr.write("phase requires --out\n")
        return USAGE_ERROR
    resolved = _resolve(args)
    # the PhaseGrid fields a config sets (d is the pencil); its own
    # defaults fill the rest
    grid_keys = {"n", "structure", "d", "weighting", "trials", "base_seed",
                 "min_separation"}
    grid = PhaseGrid(
        sample_counts=tuple(resolved.get("sample_counts", range(5, 60, 5))),
        sparsity_levels=tuple(resolved.get("sparsity_levels", range(1, 11))),
        solver=_solver_from(resolved),
        **{("pencil" if k == "d" else k): v for k, v in resolved.items()
           if k in grid_keys})
    surface = phase_transition(grid, workers=args.workers)
    emit_dat(surface, args.out)
    _write_sidecar(args.out, resolved)
    return 0


def cmd_noise_sweep(args) -> int:
    resolved = _resolve(args)
    rows = noise_sweep(resolved.get("n", 59), resolved.get("structure", "hankel"),
                       resolved.get("d", 30), resolved.get("k", 2),
                       resolved.get("m", 40),
                       resolved.get("etas", [1e-4, 1e-3, 1e-2]),
                       resolved.get("trials", 20),
                       base_seed=resolved.get("base_seed", 0),
                       solver_config=_solver_from(resolved))
    lines = ["eta mean_lifted_error"]
    lines += [f"{eta:.6g} {err:.6f}" for eta, err in rows]
    _emit(args.out, "\n".join(lines) + "\n")
    _write_sidecar(args.out, resolved)
    return 0


def cmd_validate_basis(args) -> int:
    resolved = _resolve(args)
    basis = build_basis(resolved["structure"], resolved["n"], resolved["d"])
    report = validate_basis(basis)
    checks = [("unit Frobenius norm", report.unit_frobenius),
              ("equal positive entries", report.equal_positive_entries),
              ("orthogonality", report.orthogonal),
              ("column sparsity", report.column_sparsity)]
    lines = [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in checks]
    _emit(args.out, "\n".join(lines) + "\n")
    _write_sidecar(args.out, resolved)
    return 0 if report.all_pass else NUMERICAL_ERROR


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; a flag's dest is the config key it sets."""
    parser = argparse.ArgumentParser(
        prog="wlift",
        description="Harmonic retrieval by lifted-structure matrix completion")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed="seed", needs_k=False, needs_m=False,
               structure=True):
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--n", type=int)
        if seed:
            p.add_argument("--seed", type=int, dest=seed)
        if structure:
            p.add_argument("--structure", choices=experiments.STRUCTURES)
            p.add_argument("--d", type=int, help="pencil parameter")
        if needs_k:
            p.add_argument("--k", type=int, help="number of components")
        if needs_m:
            p.add_argument("--m", type=int, help="number of observed samples")

    p = sub.add_parser("synth", help="synthesize a random mixture")
    common(p, needs_k=True, structure=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("scores", help="leverage scores of a random mixture")
    common(p, needs_k=True)
    p.set_defaults(func=cmd_scores)

    p = sub.add_parser("complete", help="single-instance completion trial")
    common(p, needs_k=True, needs_m=True)
    p.add_argument("--weighting", choices=experiments.WEIGHTINGS)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("tune", help="tune diagonal weights (oracle subspace)")
    common(p, needs_k=True, needs_m=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("phase", help="phase-transition sweep to a .dat mesh")
    common(p, seed="base_seed")
    p.add_argument("--weighting", choices=experiments.WEIGHTINGS)
    p.add_argument("--trials", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("noise-sweep", help="noise-level error sweep")
    common(p, seed="base_seed", needs_k=True, needs_m=True)
    p.add_argument("--trials", type=int)
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("validate-basis", help="check lifting-basis conditions")
    common(p, seed=None)
    p.set_defaults(func=cmd_validate_basis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the documented code
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return args.func(args)
    except (SingularWeightsError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return NUMERICAL_ERROR
    except (KeyError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
