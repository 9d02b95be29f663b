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
from .scores import (leverage_scores, lifting_coefficient, scores_to_text,
                     subspace_of)
from .signal import mixture_to_text, synthesize
from .solver import SolverConfig
from .weights import tune_diagonal_weights

USAGE_ERROR = 1
NUMERICAL_ERROR = 2

SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
LIST_KEYS = ("sample_counts", "sparsity_levels", "etas")
# config key -> the flag that sets it and that flag's argparse keywords
FLAGS = {
    "n": ("--n", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "base_seed": ("--seed", {"type": int}),
    "structure": ("--structure", {"choices": experiments.STRUCTURES}),
    "d": ("--d", {"type": int, "help": "pencil parameter"}),
    "k": ("--k", {"type": int, "help": "number of components"}),
    "m": ("--m", {"type": int, "help": "number of observed samples"}),
    "weighting": ("--weighting", {"choices": experiments.WEIGHTINGS}),
    "trials": ("--trials", {"type": int}),
}


class NumericalFailure(Exception):
    """A completion that failed numerically (exit code 2)."""


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _resolve(args) -> dict:
    """The --config file's keys, overridden by every flag given a value.

    The file may hold only keys the command reads. A value must have the
    type its flag declares, a LIST_KEYS value must be a list of numbers;
    SolverConfig and PhaseGrid check the rest.
    """
    config = {} if args.config is None \
        else json.loads(Path(args.config).read_text())
    if not isinstance(config, dict):
        raise ValueError("a --config file must hold a JSON object, "
                         f"not {type(config).__name__}")
    keys = COMMANDS[args.command][2]
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise ValueError(f"{args.command} reads no config keys "
                         f"{', '.join(unknown)}")
    for key, value in config.items():
        # JSON loads exact types: type(True) is bool, not int
        if key in LIST_KEYS:
            ok = type(value) is list and all(type(v) in (int, float) for v in value)
        else:
            kind = FLAGS[key][1].get("type") if key in FLAGS else None
            ok = kind is None or type(value) is kind
        if not ok:
            raise ValueError(f"config key {key!r} cannot be {value!r}")
    flags = {key: getattr(args, key) for key in keys
             if getattr(args, key, None) is not None}
    return {**config, **flags}


def _solver_from(resolved: dict) -> SolverConfig:
    return SolverConfig(**{k: resolved[k] for k in SOLVER_KEYS
                           if k in resolved})


def _seeded_mixture(resolved: dict):
    rng = np.random.default_rng(resolved.get("seed", 0))
    return experiments.random_mixture(resolved["n"], resolved.get("k", 1), rng)


# Each command maps its resolved config to (output text, exit code).


def cmd_synth(resolved, args):
    mixture = _seeded_mixture(resolved)
    y = synthesize(mixture)
    lines = [mixture_to_text(mixture).rstrip(), "# samples"]
    lines += [f"{v.real:.6f} {v.imag:.6f}" for v in y]
    return "\n".join(lines) + "\n", 0


def cmd_scores(resolved, args):
    basis = build_basis(resolved["structure"], resolved["n"], resolved["d"])
    sub = subspace_of(basis, synthesize(_seeded_mixture(resolved)))
    text = scores_to_text(leverage_scores(basis, sub))
    return text + f"# R_L {_fmt(lifting_coefficient(basis))}\n", 0


def cmd_complete(resolved, args):
    outcome = run_trial(resolved["n"], resolved["structure"], resolved["d"],
                        resolved.get("weighting", "identity"),
                        resolved["m"], resolved["k"], resolved.get("seed", 0),
                        _solver_from(resolved))
    if outcome.error_code is not None:
        raise NumericalFailure(f"completion failed: {outcome.error_code}")
    return (f"rel_error {_fmt(outcome.rel_error)}\n"
            f"success {str(outcome.success).lower()}\n"), 0


def cmd_tune(resolved, args):
    basis = build_basis(resolved["structure"], resolved["n"], resolved["d"])
    y, sset = experiments._draw(resolved["n"], resolved.get("k", 1),
                                resolved["m"], resolved.get("seed", 0))
    tuned = tune_diagonal_weights(basis, sset, subspace_of(basis, y))
    lines = ["# objective baseline",
             f"{tuned.objective:.6f} {tuned.baseline:.6f}",
             "# left diagonal",
             " ".join(_fmt(v) for v in tuned.weights.left_diag),
             "# right diagonal",
             " ".join(_fmt(v) for v in tuned.weights.right_diag)]
    return "\n".join(lines) + "\n", 0


def _sweep_args(resolved: dict) -> dict:
    """Sweep keywords: d is the pencil, a list a tuple, no SolverConfig key."""
    return {("pencil" if k == "d" else k): tuple(v) if type(v) is list else v
            for k, v in resolved.items() if k not in SOLVER_KEYS}


def cmd_phase(resolved, args):
    """Writes the .dat mesh itself; PhaseGrid holds every default."""
    grid = PhaseGrid(**_sweep_args(resolved), solver=_solver_from(resolved))
    emit_dat(phase_transition(grid, workers=args.workers), args.out)
    return None, 0


def cmd_noise_sweep(resolved, args):
    rows = noise_sweep(**_sweep_args(resolved),
                       solver_config=_solver_from(resolved))
    lines = ["eta mean_lifted_error"]
    lines += [f"{eta:.6g} {err:.6f}" for eta, err in rows]
    return "\n".join(lines) + "\n", 0


def cmd_validate_basis(resolved, args):
    # a basis that builds meets all four conditions; one that does not
    # raises ValueError, a usage error
    build_basis(resolved["structure"], resolved["n"], resolved["d"])
    return "".join(f"PASS {name}\n" for name in (
        "unit Frobenius norm", "equal positive entries", "orthogonality",
        "column sparsity")), 0


# command -> (help, function, config keys it reads: its flags' keys in flag
# order, then the keys only a --config file sets)
COMMANDS = {
    "synth": ("synthesize a random mixture", cmd_synth,
              ("n", "seed", "k")),
    "scores": ("leverage scores of a random mixture", cmd_scores,
               ("n", "seed", "structure", "d", "k")),
    "complete": ("single-instance completion trial", cmd_complete,
                 ("n", "seed", "structure", "d", "k", "m", "weighting")
                 + SOLVER_KEYS),
    "tune": ("tune diagonal weights (oracle subspace)", cmd_tune,
             ("n", "seed", "structure", "d", "k", "m")),
    "phase": ("phase-transition sweep to a .dat mesh", cmd_phase,
              ("n", "base_seed", "structure", "d", "weighting", "trials",
               "sample_counts", "sparsity_levels", "min_separation")
              + SOLVER_KEYS),
    "noise-sweep": ("noise-level error sweep", cmd_noise_sweep,
                    ("n", "base_seed", "structure", "d", "k", "m", "trials",
                     "etas") + SOLVER_KEYS),
    "validate-basis": ("check lifting-basis conditions", cmd_validate_basis,
                       ("n", "structure", "d")),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; a flag's dest is the config key it sets."""
    parser = argparse.ArgumentParser(
        prog="wlift",
        description="Harmonic retrieval by lifted-structure matrix completion")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--out", required=command == "phase",
                       help="output path (stdout when omitted)")
        for key in keys:
            if key in FLAGS:
                flag, kwargs = FLAGS[key]
                p.add_argument(flag, dest=key, **kwargs)
        if command == "phase":
            p.add_argument("--workers", type=int, default=1)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command; write its output, then its config sidecar."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the documented code
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        # checked before the command runs, so a bad path wastes no sweep
        if args.out is not None:
            if not Path(args.out).parent.is_dir():
                raise FileNotFoundError(f"no directory for --out {args.out}")
            if Path(args.out).is_dir():
                raise IsADirectoryError(f"--out {args.out} is a directory")
        resolved = _resolve(args)
        text, code = args.func(resolved, args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            if text is not None:  # phase wrote its .dat itself
                Path(args.out).write_text(text)
            Path(args.out + ".config.json").write_text(
                json.dumps(resolved, indent=2, sort_keys=True) + "\n")
        return code
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return NUMERICAL_ERROR
    except KeyError as exc:  # a command read a key nobody set
        sys.stderr.write(f"usage error: missing config key {exc}\n")
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        # a json.JSONDecodeError is a ValueError
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
