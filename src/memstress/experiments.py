"""Named batch experiments reproducing the headline claims.

Each experiment is a pure function of its validated config (plus seed) that
returns result tables, a summary, and pass/fail checks; the runner writes
CSV/JSON/SVG artifacts and maps outcomes to exit codes:

    0  all checks passed
    1  config error
    2  an invariant or claim check failed
    3  numerical failure
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .effective import (
    SymTridiag,
    banded_effective,
    ising_effective_surface,
    ising_surface_diagonal,
    toric_effective,
)
from .iep import MIN_TIME_FACTOR, retune_chain
from .lattices import (
    IsingLattice,
    ToricLattice,
    ising_hamiltonian,
    ising_perturbation,
    toric_hamiltonian,
    toric_logicals,
    toric_perturbation,
)
from .oracle import (
    effective_matrix_elements,
    expectation,
    ising_ground_energy,
    ising_prefix_basis,
    krylov_propagate,
    orthonormal_columns,
    subspace_projection,
    toric_ground_state,
    toric_string_basis,
    two_excitation_transfer,
    verify_duality_map,
)
from .pauli import apply_to_state
from .reporting import write_csv, write_json, write_svg_plot
from .spectral import EIGENSOLVER, NumericalError, eigh_tridiag, min_gap
from .splitting import measure_splitting, plateau_spectrum, predicted_order
from .transfer import (
    christandl_couplings,
    fidelity,
    fidelity_trace,
    locate_fidelity_peak,
    measure_transfer_time,
    time_grid,
)

__all__ = ["ConfigError", "ExperimentConfig", "EXPERIMENTS", "run", "load_config_file"]


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass
class ExperimentConfig:
    experiment: str
    N_range: list[int] = field(default_factory=list)
    delta: float = 0.1
    t_factor: float = 50.0
    threshold: float = 0.999
    output_dir: str = "results"
    seed: int = 0
    svg: bool = False

    def validated(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: unknown name {self.experiment!r}; "
                f"choose from {', '.join(sorted(EXPERIMENTS))}"
            )
        spec = EXPERIMENTS[self.experiment]
        if not self.N_range:
            self.N_range = list(spec.default_N)
        if any(not isinstance(n, int) or n < spec.min_N for n in self.N_range):
            raise ConfigError(
                f"N_range: {self.experiment} needs integers >= {spec.min_N}, got {self.N_range}"
            )
        if len(set(self.N_range)) != len(self.N_range):
            raise ConfigError(f"N_range: {self.experiment} lists an N twice, got {self.N_range}")
        if spec.allowed_N and (len(self.N_range) != 1 or self.N_range[0] not in spec.allowed_N):
            raise ConfigError(
                f"N_range: {self.experiment} runs at exactly one N from "
                f"{list(spec.allowed_N)}, got {self.N_range}"
            )
        if not (0.0 < self.delta <= 0.5):
            raise ConfigError(f"delta: must lie in (0, 0.5], got {self.delta}")
        if not (np.isfinite(self.t_factor) and self.t_factor >= MIN_TIME_FACTOR):
            raise ConfigError(
                f"t_factor: must be finite and >= 10 (retuning bound), got {self.t_factor}"
            )
        if not (0.0 < self.threshold <= 1.0):
            raise ConfigError(f"threshold: must lie in (0, 1], got {self.threshold}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed: must be a nonnegative integer, got {self.seed}")
        return self


@dataclass(frozen=True)
class Check:
    """A claim's value against its requirement.

    at_most, at_least and within derive the requirement text, ``passed`` and
    ``margin`` (how far inside the bound the value lies, >= 0 iff passed) from
    one bound."""

    name: str
    value: float
    requirement: str
    passed: bool
    margin: float | None = None

    @classmethod
    def at_most(cls, name: str, value: float, bound: float) -> "Check":
        return cls(name, value, f"<= {bound:.15g}", value <= bound, bound - value)

    @classmethod
    def at_least(cls, name: str, value: float, bound: float) -> "Check":
        return cls(name, value, f">= {bound:.15g}", value >= bound, value - bound)

    @classmethod
    def within(cls, name: str, value: float, target: float, tol: float) -> "Check":
        dev = abs(value - target)
        return cls(name, value, f"{target:.15g} +/- {tol:.15g}", dev <= tol, tol - dev)


@dataclass
class Outcome:
    tables: dict[str, tuple[list[str], list[tuple]]]
    checks: list[Check]
    summary: dict = field(default_factory=dict)  # what the run found beyond its checks
    plots: list[tuple[str, dict]] = field(default_factory=list)


def _check_table(checks: list[Check], requirement: str) -> tuple[list[str], list[tuple]]:
    return (["check", "value", requirement, "passed"],
            [(c.name, c.value, c.requirement, c.passed) for c in checks])


def _uniform_chain(N: int, delta: float) -> SymTridiag:
    return toric_effective(N, 1.0, delta, np.full(N - 2, 0.5), np.zeros(N - 1))


def _christandl_chain(N: int, delta: float) -> tuple[SymTridiag, float]:
    """The Christandl-coupled toric chain and its first mirror time."""
    chain = toric_effective(N, 1.0, delta, christandl_couplings(N), np.zeros(N - 1))
    return chain, np.pi * (N - 1) / (4.0 * delta)


def _fit_slope(x, y) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _delta_ladder(delta: float) -> np.ndarray:
    return delta * np.logspace(-1.0, 0.0, 6)


def _max_unit_deviation(psi: np.ndarray, terms) -> float:
    """max |1 - <psi|P|psi>| over Pauli terms P that should stabilize psi."""
    return max(abs(1.0 - float(np.real(np.vdot(psi, apply_to_state(p, psi))))) for p in terms)


def exp_toric_scaling(cfg: ExperimentConfig) -> Outcome:
    if len(cfg.N_range) < 2:
        raise ConfigError(f"N_range: toric-scaling fits slopes across N, so needs "
                          f"two or more, got {cfg.N_range}")
    rows = []
    gaps, times = [], []
    for N in cfg.N_range:
        s_uniform = eigh_tridiag(_uniform_chain(N, cfg.delta))
        gap = min_gap(s_uniform)
        chain, t_expect = _christandl_chain(N, cfg.delta)
        res = measure_transfer_time(eigh_tridiag(chain), cfg.threshold, 1.5 * t_expect)
        if not res.reached:
            raise NumericalError(f"transfer threshold never reached at N={N}")
        gaps.append(gap)
        times.append(res.transfer_time)
        rows.append((N, gap, res.transfer_time))
    gap_slope = _fit_slope(cfg.N_range, gaps)
    time_slope = _fit_slope(cfg.N_range, times)
    return Outcome(
        tables={"": (["N", "min_gap", "transfer_time"], rows)},
        checks=[
            Check.within("min_gap_exponent", gap_slope, -2.0, 0.1),
            Check.within("transfer_time_exponent", time_slope, 1.0, 0.05),
        ],
        plots=[
            ("min_gap", dict(xs=cfg.N_range, ys=gaps, title="minimum gap vs N",
                             xlabel="N", ylabel="min gap", logx=True, logy=True)),
            ("transfer_time", dict(xs=cfg.N_range, ys=times, title="transfer time vs N",
                                   xlabel="N", ylabel="t", logx=True, logy=True)),
        ],
    )


def exp_toric_retune(cfg: ExperimentConfig) -> Outcome:
    rows = []
    ladder_rows = []
    worst_f = 1.0
    slopes = []
    factors = np.logspace(0.0, np.log10(16.0), 9)
    for N in cfg.N_range:
        chain = _uniform_chain(N, cfg.delta)
        gap = min_gap(eigh_tridiag(chain))
        t0 = cfg.t_factor * np.pi / gap
        rebuilds = [retune_chain(chain, factor * t0)[0] for factor in factors]
        shifts = [float(np.max(np.abs(r.offdiag - chain.offdiag))) for r in rebuilds]
        # factors[0] is exactly 1.0, so the ladder's first rebuild is the one at t0
        f_t = fidelity(eigh_tridiag(rebuilds[0]), t0)
        worst_f = min(worst_f, f_t)
        rows.append((N, t0, f_t, shifts[0]))
        ladder_rows.extend((N, factor * t0, shift) for factor, shift in zip(factors, shifts))
        slopes.append(_fit_slope(factors, shifts))
    slope = float(np.mean(slopes))
    return Outcome(
        tables={
            "": (["N", "t", "fidelity_at_t", "max_coupling_shift"], rows),
            "shift_ladder": (["N", "t", "max_coupling_shift"], ladder_rows),
        },
        checks=[
            Check.at_least("worst_fidelity", worst_f, 1.0 - 1e-6),
            Check.within("shift_vs_t_exponent", slope, -1.0, 0.2),
        ],
        plots=[("shift_ladder", dict(xs=[r[1] for r in ladder_rows],
                                     ys=[r[2] for r in ladder_rows],
                                     title="coupling shift vs t",
                                     xlabel="t", ylabel="max shift", logx=True, logy=True))],
    )


def exp_toric_transfer(cfg: ExperimentConfig) -> Outcome:
    rows = []
    worst = 1.0
    trace_rows: list[tuple] = []
    for N in cfg.N_range:
        chain, t_expect = _christandl_chain(N, cfg.delta)
        s = eigh_tridiag(chain)
        t_star, f_star = locate_fidelity_peak(s, 1.5 * t_expect)
        worst = min(worst, f_star)
        rows.append((N, t_star, f_star))
        if N == max(cfg.N_range):
            times = time_grid(s, 1.5 * t_expect)
            trace_rows = list(zip(times.tolist(), fidelity_trace(s, times).tolist()))
    return Outcome(
        tables={
            "": (["N", "t_star", "f_star"], rows),
            "trace": (["t", "fidelity"], trace_rows),
        },
        checks=[Check.at_least("worst_peak_fidelity", worst, 1.0 - 1e-9)],
        plots=[("trace", dict(xs=[r[0] for r in trace_rows] or [0.0],
                              ys=[r[1] for r in trace_rows] or [0.0],
                              title="fidelity trace", xlabel="t", ylabel="F"))],
    )


def exp_ising_splitting(cfg: ExperimentConfig) -> Outcome:
    deltas = _delta_ladder(cfg.delta)
    rows = []
    checks = []
    summary: dict = {}
    for N in cfg.N_range:
        predicted = predicted_order(ising_surface_diagonal(N).size, 1)
        fit = measure_splitting(lambda d, N=N: ising_effective_surface(N, d), (0, 1), deltas)
        for d, sp in zip(fit.deltas, fit.splittings):
            rows.append((N, d, sp))
        tol = 0.1 if predicted <= 3 else 0.3
        checks.append(Check.within(f"splitting_order_N{N}", fit.fitted_order, predicted, tol))
        summary[f"predicted_N{N}"] = predicted
        summary[f"digits_N{N}"] = int(fit.digits.max())
    m_flat = ising_surface_diagonal(cfg.N_range[0]).size
    flat = measure_splitting(
        lambda d: SymTridiag(np.full(m_flat, 2.0), np.full(m_flat - 1, 0.5 * d)),
        (0, 1),
        deltas,
    )
    checks.append(Check.within("contrast_flat_order", flat.fitted_order, 1.0, 0.05))
    return Outcome(
        tables={
            "": (["N", "delta", "splitting"], rows),
            "contrast": (["delta", "splitting"], list(zip(flat.deltas, flat.splittings))),
        },
        summary=summary,
        checks=checks,
        plots=[("splitting", dict(xs=deltas, ys=[r[2] for r in rows if r[0] == cfg.N_range[0]],
                                  title="lowest-pair splitting", xlabel="delta",
                                  ylabel="splitting", logx=True, logy=True))],
    )


def exp_ising_plateau(cfg: ExperimentConfig) -> Outcome:
    deltas = cfg.delta * np.logspace(-1.5, 0.0, 8)
    rows = []
    checks = []
    for N in cfg.N_range:
        resid = []
        for d in deltas:
            s = eigh_tridiag(ising_effective_surface(N, float(d)))
            formula = np.sort(plateau_spectrum(N, float(d)))
            numeric = s.eigenvalues[-formula.size:]
            r = float(np.max(np.abs(numeric - formula)))
            resid.append(r)
            rows.append((N, float(d), r))
        slope = _fit_slope(deltas, resid)
        checks.append(Check.at_least(f"residual_exponent_N{N}", slope, 1.8))
    return Outcome(
        tables={"": (["N", "delta", "max_residual"], rows)},
        checks=checks,
        plots=[("residual", dict(xs=deltas, ys=[r[2] for r in rows if r[0] == cfg.N_range[0]],
                                 title="plateau formula residual", xlabel="delta",
                                 ylabel="residual", logx=True, logy=True))],
    )


def _mirror_symmetric_bands(rng, k: int, M: int) -> np.ndarray:
    """Random band profiles respecting the chain's mirror symmetry.

    Mirror-breaking bands detune the degenerate pair at second order without
    delocalizing it, so the tunneling-order claim is demonstrated on the
    symmetric family (the detuning contributions then cancel identically).
    """
    unit = rng.uniform(-1.0, 1.0, size=(k, M - 1))
    for b in range(1, k + 1):
        row = unit[b - 1, : M - b]
        unit[b - 1, : M - b] = 0.5 * (row + row[::-1])
    return unit


def exp_banded_splitting(cfg: ExperimentConfig) -> Outcome:
    k = 2
    deltas = cfg.delta * np.logspace(-1.5, -0.5, 6)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    checks = []
    summary = {"k": k}
    for N in cfg.N_range:
        M = ising_surface_diagonal(N).size
        unit = _mirror_symmetric_bands(rng, k, M)
        fit = measure_splitting(
            lambda d, N=N, unit=unit: banded_effective(N, float(d), k, float(d) * unit),
            (0, 1),
            deltas,
        )
        for d, sp in zip(fit.deltas, fit.splittings):
            rows.append((N, d, sp))
        bound = predicted_order(M, 1, k)
        checks.append(Check.at_least(f"banded_order_N{N}", fit.fitted_order, bound - 0.1))
        summary[f"bound_N{N}"] = bound
        summary[f"digits_N{N}"] = int(fit.digits.max())
    return Outcome(
        tables={"": (["N", "delta", "splitting"], rows)},
        summary=summary,
        checks=checks,
        plots=[],
    )


def exp_oracle_verify(cfg: ExperimentConfig) -> Outcome:
    N = cfg.N_range[0]
    delta = cfg.delta
    lat = ToricLattice(N, delta_gap=1.0)
    h = toric_hamiltonian(lat)
    started = time.perf_counter()
    psi = toric_ground_state(lat)
    seconds = {"ground_state": time.perf_counter() - started}
    checks: list[Check] = []

    checks.append(Check.at_most("stabilizer_expectations",
                                _max_unit_deviation(psi, lat.stabilizers()), 1e-12))
    checks.append(Check.at_most("logical_z_expectations",
                                _max_unit_deviation(psi, toric_logicals(lat)[:2]), 1e-12))

    e_ground = expectation(h, psi)
    # H = -sum c_k S_k with Pauli S_k of unit operator norm, so <H> >= -sum |c_k| in
    # every state (triangle inequality); a state that reaches the bound is a ground state
    checks.append(Check.within("ground_energy_vs_bound", e_ground,
                               -sum(abs(term.coeff) for term in h.terms), 1e-12))

    basis = toric_string_basis(lat, psi)
    gram = np.array([[abs(complex(np.vdot(a, b))) for b in basis] for a in basis])
    checks.append(Check.at_most("string_basis_orthonormality",
                                float(np.max(np.abs(gram - np.eye(len(basis))))), 1e-12))

    rng = np.random.default_rng(cfg.seed + 2)
    J = rng.uniform(0.3, 0.9, max(N - 2, 0))
    B = rng.uniform(-0.5, 0.5, N - 1)
    dH = toric_perturbation(lat, J, B, delta)
    exact = effective_matrix_elements(h + dH, basis, e_ground)
    model = toric_effective(N, lat.delta_gap, delta, J, B).dense()
    checks.append(Check.at_most("matrix_element_deviation",
                                float(np.max(np.abs(exact - model))), 1e-12))

    if N < 3:  # a single string state: nothing to transfer
        return Outcome(
            tables={"": _check_table(checks, "bound")},
            summary={"N": N, "ground_energy": e_ground, "stage_seconds": seconds},
            checks=checks,
        )

    chain = _uniform_chain(N, delta)
    t = cfg.t_factor * np.pi / min_gap(eigh_tridiag(chain))
    rebuilt, _ = retune_chain(chain, t)
    J_new = rebuilt.offdiag / delta
    B_new = (rebuilt.diag - 2.0 * lat.delta_gap) / delta
    checks.append(Check.at_most("retuned_couplings_within_budget",
                                float(max(np.max(np.abs(J_new)), np.max(np.abs(B_new)))), 1.0))
    dH_new = toric_perturbation(lat, J_new, B_new, delta)
    h_total = h + dH_new
    leak = 0.0
    state = basis[0]
    seconds["krylov"] = 0.0
    started = time.perf_counter()
    strings = orthonormal_columns(basis)
    seconds["projection"] = time.perf_counter() - started
    for _ in range(8):
        started = time.perf_counter()
        state = krylov_propagate(h_total, state, t / 8.0)
        propagated = time.perf_counter()
        _, resid = subspace_projection(strings, state)
        seconds["krylov"] += propagated - started
        seconds["projection"] += time.perf_counter() - propagated
        leak = max(leak, resid)
    checks.append(Check.at_most("subspace_leakage", leak, 1e-10))
    overlap = float(abs(complex(np.vdot(basis[-1], state))) ** 2)
    checks.append(Check.at_least("logical_flip_overlap", overlap, 0.99))

    ilat = IsingLattice(3)
    ih = ising_hamiltonian(ilat)
    ie0 = ising_ground_energy(ilat)
    ibasis = ising_prefix_basis(ilat)
    m_dim = len(ibasis)
    iJ = np.full(m_dim - 1, 1.0)
    iB = np.zeros(m_dim)
    ih_total = ih + ising_perturbation(ilat, iJ, iB, delta)
    iexact = effective_matrix_elements(ih_total, ibasis, ie0)
    imodel = ising_effective_surface(3, delta).dense()
    checks.append(Check.at_most("ising_matrix_element_deviation",
                                float(np.max(np.abs(iexact - imodel))), 1e-12))
    images = [ih_total.apply(s) for s in ibasis]
    istrings = orthonormal_columns(ibasis)
    ileak = max(subspace_projection(istrings, image)[1] / max(float(np.linalg.norm(image)), 1.0)
                for image in images)
    checks.append(Check.at_most("ising_subspace_closure", ileak, 1e-12))

    return Outcome(
        tables={"": _check_table(checks, "bound")},
        summary={"N": N, "ground_energy": e_ground, "designed_t": t,
                 "stage_seconds": seconds},
        checks=checks,
    )


def exp_duality_verify(cfg: ExperimentConfig) -> Outcome:
    N = cfg.N_range[0]
    lat = ToricLattice(N)
    J = np.ones(N - 2)
    dH = toric_perturbation(lat, J, np.zeros(N - 1), cfg.delta)
    report = verify_duality_map(lat, dH, J, cfg.delta)
    single_ok = all(c == 1 for c in report.string_flip_counts)
    pair_ok = all(c == 2 for c in report.pair_flip_counts)
    checks = [
        Check("terms_matched", float(report.matched), "exact", report.matched),
        Check("n_terms", float(report.n_terms), "== 2(N-2)", report.n_terms == 2 * (N - 2)),
        Check("max_coeff_dev", report.max_coeff_dev, "== 0", report.max_coeff_dev == 0.0),
        Check("string_excitation_numbers", float(single_ok), "every U_l maps to 1 flip", single_ok),
        Check("pair_excitation_numbers", float(pair_ok), "every U_iU_{i-1} maps to 2 flips",
              pair_ok),
    ]
    return Outcome(
        tables={"": _check_table(checks, "requirement")},
        summary={
            "string_flip_counts": list(report.string_flip_counts),
            "pair_flip_counts": list(report.pair_flip_counts),
        },
        checks=checks,
    )


def exp_two_excitation(cfg: ExperimentConfig) -> Outcome:
    N = cfg.N_range[0]
    lat = ToricLattice(N)
    delta = cfg.delta
    J = christandl_couplings(N)
    dH = toric_perturbation(lat, J, np.zeros(N - 1), delta)
    t_star = _christandl_chain(N, delta)[1]
    times = [float(t) for t in np.linspace(0.0, t_star, 9)]
    counts = Counter()
    rows = list(zip(times, two_excitation_transfer(lat, 1, times, dH, counts=counts)))
    final = rows[-1][1]
    initial = rows[0][1]
    return Outcome(
        tables={"": (["t", "fidelity"], rows)},
        summary={"t_star": t_star,
                 "krylov_propagate_calls": counts["krylov_propagate_calls"],
                 "lanczos_bases": counts["lanczos_bases"]},
        checks=[
            Check.at_least("mirror_overlap_at_t0", initial, 1.0 - 1e-9),
            Check.at_least("pair_transfer_fidelity", final, 0.99),
        ],
        plots=[("pair_fidelity", dict(xs=[r[0] for r in rows], ys=[r[1] for r in rows],
                                      title="adjacent-pair transfer", xlabel="t", ylabel="F"))],
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment; ``allowed_N``, when set, means exactly one N from it."""

    func: object
    default_N: tuple
    summary: str
    min_N: int = 2
    allowed_N: tuple = ()


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "toric-scaling": ExperimentSpec(
        exp_toric_scaling, (16, 32, 64, 128, 256),
        "min gap ~ delta/N^2 and christandl transfer time ~ N/delta, "
        "fitted as slopes over two or more N",
        min_N=3,
    ),
    "toric-retune": ExperimentSpec(
        exp_toric_retune, (8, 16, 32, 64),
        "retuned uniform chains reach F(t) >= 1 - 1e-6 with O(1/t) coupling shifts",
        min_N=3,
    ),
    "toric-transfer": ExperimentSpec(
        exp_toric_transfer, (4, 8, 16, 32, 51),
        "christandl chains transfer perfectly at the located optimum",
        min_N=3,
    ),
    "ising-splitting": ExperimentSpec(
        exp_ising_splitting, (3, 4),
        "lowest-pair splitting is O(delta^(M-1)); flat chains split at first order",
        min_N=3,
    ),
    "ising-plateau": ExperimentSpec(
        exp_ising_plateau, (4, 5),
        "plateau splits at first order onto the printed cosine band",
        min_N=4,
    ),
    "banded-splitting": ExperimentSpec(
        exp_banded_splitting, (3, 4),
        "k-banded perturbations still need order >= ceil((M-1)/k)",
        min_N=3,
    ),
    "oracle-verify": ExperimentSpec(
        exp_oracle_verify, (3,),
        "exact statevector checks of the reduced chains on small lattices",
        allowed_N=(2, 3),
    ),
    "duality-verify": ExperimentSpec(
        exp_duality_verify, (3,),
        "the CNOT duality maps deltaH to the XX+YY hopping chain exactly",
        allowed_N=(3,),
    ),
    "two-excitation": ExperimentSpec(
        exp_two_excitation, (3,),
        "an interior fault mirrors within the two-string sector",
        allowed_N=(3,),
    ),
}


def load_config_file(path: str | Path) -> dict:
    """Parse a key = value config file (one pair per line, # comments)."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{key}: given twice, on lines {lines[key]} and {lineno}")
        raw[key] = value.strip()
        lines[key] = lineno
    return _coerce(raw)


def _parse_n_range(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"N_range: {text!r} lists no N; leave the key out to run the defaults")
    text = text.strip()
    try:
        if ".." not in text:
            return [int(tok) for tok in tokens]
        lo, hi = (int(part) for part in text.split("..", 1))
    except ValueError as exc:
        raise ConfigError(f"N_range: cannot parse {text!r}") from exc
    if not 1 <= lo <= hi:
        raise ConfigError(f"N_range: span {text!r} must run from a positive start up to its end")
    out = []
    n = lo
    while n <= hi:
        out.append(n)
        n *= 2
    return out


def _coerce(raw: dict[str, str]) -> dict:
    out: dict = {}
    known = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"{key}: unknown config key")
        if key == "N_range":
            out[key] = _parse_n_range(value)
        elif key in ("delta", "t_factor", "threshold"):
            try:
                out[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"{key}: expected a number, got {value!r}") from exc
        elif key == "seed":
            try:
                out[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"{key}: expected an integer, got {value!r}") from exc
        elif key == "svg":
            if value.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"svg: expected true/false, got {value!r}")
            out[key] = value.lower() in ("true", "1")
        else:
            out[key] = value
    return out


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment and write its artifacts; returns the exit code.

    ConfigError and NumericalError propagate to the caller (the CLI maps them
    to exit codes 1 and 3).
    """
    cfg = cfg.validated()
    spec = EXPERIMENTS[cfg.experiment]
    started = time.time()
    outcome = spec.func(cfg)
    all_passed = all(c.passed for c in outcome.checks)
    out_dir = Path(cfg.output_dir)
    slug = cfg.experiment.replace("-", "_")
    for table_name, (header, rows) in outcome.tables.items():
        stem = slug if not table_name else f"{slug}_{table_name}"
        write_csv(out_dir / f"{stem}.csv", header, rows)
    payload = {
        "experiment": cfg.experiment,
        "config": asdict(cfg),
        "version": __version__,
        "wall_clock_seconds": time.time() - started,
        "eigensolver": EIGENSOLVER,
        "checks": [asdict(c) for c in outcome.checks],
        "summary": outcome.summary,
        "all_passed": all_passed,
    }
    write_json(out_dir / f"{slug}_summary.json", payload)
    if cfg.svg:
        for plot_name, kwargs in outcome.plots:
            write_svg_plot(out_dir / f"{slug}_{plot_name}.svg", **kwargs)
    return 0 if all_passed else 2
