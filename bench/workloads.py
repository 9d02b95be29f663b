"""The benchmark's workloads: fixed trial pools run through the public wlift API.

Each in-process workload is a pool of trials in a canonical order. One
trial is one call into wlift (`run_trial`, or `noise_sweep` for a single
instance and noise level) and yields an outcome ``(success, error_code)``
that is compared with the outcome recorded in `reference.json`.
Calls go through the `wlift.experiments` module so that a traced run
sees them. The `phase_cli` workload runs the `wlift phase` command
instead; see `phase_config` and `phase_check`.

Import this module only after `src/` is on `sys.path`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from wlift import experiments
from wlift.experiments import cell_seed, loglog_slope
from wlift.solver import SolverConfig

N = 59
# The acceptance band: the (M, K) cells either side of the phase boundary.
BAND_CELLS = ((20, 2), (20, 4), (30, 4), (30, 6), (40, 8), (40, 10))
IDENTITY_STRUCTURES = (("hankel", 30), ("double-hankel", 40))
# Trials per cell, sized so that one pass of each pool takes 10-20 s on
# an uncontended 2-core box.
BAND_IDENTITY_TRIALS = 6
BAND_TWO_STAGE_TRIALS = 4

NOISY_CELL = (40, 2)
NOISY_ETAS = (0.0, 1e-4, 1e-3, 1e-2)
NOISY_INSTANCES = 16
NOISY_CONFIG = SolverConfig(max_iters=4000, rel_tol=1e-9)  # criterion 7's
# A noisy trial succeeds when its lifted error is within this multiple of
# sqrt(M) * eta (measured: at most 4.6x at this commit), or below the
# zero-noise tolerance when eta = 0.
NOISY_GAIN = 10.0
ZERO_NOISE_TOL = 1e-6
SLOPE_LIMIT = 1.1

# Bright (M=40, K=2), band (M=30, K=6) and dark (M=20, K=10) cells.
PHASE_SAMPLE_COUNTS = (20, 30, 40)
PHASE_SPARSITY = (2, 6, 10)
PHASE_TRIALS = 3
PHASE_WORKERS = 2


@dataclass(frozen=True)
class Trial:
    m: int
    k: int
    t: int
    seed: int
    structure: str = "hankel"
    pencil: int = 30
    weighting: str = "identity"
    eta: Optional[float] = None

    def label(self) -> str:
        eta = "" if self.eta is None else f" eta={self.eta:g}"
        return (f"{self.structure} {self.weighting} M={self.m} K={self.k} "
                f"t={self.t}{eta}")


def pool(workload: str, base_seed: int):
    """The workload's trials in canonical (reference) order."""
    if workload == "band_identity":
        return [Trial(m, k, t, cell_seed(base_seed, m, k, t), s, d)
                for m, k in BAND_CELLS
                for t in range(BAND_IDENTITY_TRIALS)
                for s, d in IDENTITY_STRUCTURES]
    if workload == "band_two_stage":
        return [Trial(m, k, t, cell_seed(base_seed, m, k, t),
                      weighting="two_stage")
                for m, k in BAND_CELLS
                for t in range(BAND_TWO_STAGE_TRIALS)]
    if workload == "noisy_easy":
        m, k = NOISY_CELL
        return [Trial(m, k, t, cell_seed(base_seed, m, k, t), eta=eta)
                for t in range(NOISY_INSTANCES) for eta in NOISY_ETAS]
    raise ValueError(f"{workload} has no in-process trial pool")


def cells(workload: str):
    if workload == "phase_cli":
        return [(m, k) for k in PHASE_SPARSITY for m in PHASE_SAMPLE_COUNTS]
    return sorted({(t.m, t.k) for t in pool(workload, 0)})


def noisy_success(eta: float, m: int, err: float) -> bool:
    if eta == 0:
        return err <= ZERO_NOISE_TOL
    return err <= NOISY_GAIN * math.sqrt(m) * eta


def execute(trial: Trial):
    """Run one trial; returns (success, error_code, error value)."""
    if trial.eta is None:
        out = experiments.run_trial(N, trial.structure, trial.pencil,
                                    trial.weighting, trial.m, trial.k,
                                    trial.seed)
        return bool(out.success), out.error_code, out.rel_error
    try:
        # one instance: noise_sweep draws it from cell_seed(seed, M, K, 0)
        (_, err), = experiments.noise_sweep(
            N, trial.structure, trial.pencil, trial.k, trial.m, [trial.eta],
            trials=1, base_seed=trial.seed, solver_config=NOISY_CONFIG)
    except (ValueError, ArithmeticError) as exc:
        return False, type(exc).__name__, float("inf")
    return noisy_success(trial.eta, trial.m, err), None, err


def setup(workload: str) -> None:
    """Build both bases and run one untimed warm-up trial of the workload."""
    for structure, pencil in IDENTITY_STRUCTURES:
        experiments.build_basis(structure, N, pencil)
    m, k = NOISY_CELL
    seed = cell_seed(0, m, k, 0)
    if workload == "band_two_stage":
        execute(Trial(m, k, 0, seed, weighting="two_stage"))
    elif workload == "noisy_easy":
        execute(Trial(m, k, 0, seed, eta=NOISY_ETAS[1]))
    else:
        execute(Trial(m, k, 0, seed))


def compare(outcomes, reference):
    """Indices whose (success, error_code) differs from the reference.

    `outcomes` is a list of (index, success, error_code). Without a
    reference only trials that raised an error code count.
    """
    bad = []
    for i, success, code in outcomes:
        if code is not None:
            bad.append(i)
        elif reference is not None and [success, code] != list(reference[i]):
            bad.append(i)
    return bad


def pool_check(workload: str, trials, values):
    """Pool-level conditions; returns a list of problems (empty when fine)."""
    if workload != "noisy_easy":
        return []
    means = {}
    for eta in NOISY_ETAS:
        errs = [v for t, v in zip(trials, values) if t.eta == eta]
        means[eta] = sum(errs) / len(errs)
    rows = [(eta, means[eta]) for eta in NOISY_ETAS]
    problems = []
    zero = means[0.0]
    if not zero <= ZERO_NOISE_TOL:
        problems.append(f"zero-noise error {zero:.3e} > {ZERO_NOISE_TOL:g}")
    slope = loglog_slope(rows[1:])
    if not slope <= SLOPE_LIMIT:
        problems.append(f"noise slope {slope:.4f} > {SLOPE_LIMIT}")
    return problems


def phase_config(base_seed: int) -> dict:
    return {"sample_counts": list(PHASE_SAMPLE_COUNTS),
            "sparsity_levels": list(PHASE_SPARSITY),
            "trials": PHASE_TRIALS, "structure": "hankel", "d": 30,
            "weighting": "identity", "base_seed": base_seed}


def phase_trials() -> int:
    return len(PHASE_SAMPLE_COUNTS) * len(PHASE_SPARSITY) * PHASE_TRIALS


def phase_check(dat: str, reference: Optional[str]) -> int:
    """Failed trials in a `.dat` body: every trial of a cell whose line differs."""
    lines = dat.splitlines()
    cell_lines = len(PHASE_SAMPLE_COUNTS) * len(PHASE_SPARSITY)
    if len(lines) != cell_lines + 1 or lines[0] != "M K C":
        return phase_trials()
    if reference is None:
        return 0
    ref = reference.splitlines()
    if len(ref) != len(lines):
        return phase_trials()
    return PHASE_TRIALS * sum(a != b for a, b in zip(lines[1:], ref[1:]))


def phase_success_rate(dat: str) -> float:
    rates = [float(line.split()[2]) for line in dat.splitlines()[1:]]
    return sum(rates) / len(rates)
