"""End-to-end experiments: absorption, ancilla rotations, collective coupling,
the entangled-pair mixing protocol, angle optimization, and the summary table.

Conventions: J = 1 (times in units of 1/J), flying/ancilla occupations use
hard-core modes, target qubits use the (g, e) basis.  Every protocol is
deterministic and single-threaded; independent runs share no mutable state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import dynamics
from .dynamics import (
    CouplingSpec,
    MixingAngle,
    collective_jc_hamiltonian,
    evolve,
    jc_hamiltonian,
    number_operator,
    propagator,
)
from .entanglement import (
    TwoQubitDensity,
    concurrence,
    fidelity,
    state_overlap,
    target_pair_density,
    trace_distance,
)
from .hilbert import (
    BosonicMode,
    DensityOp,
    FermionicMode,
    LinearOp,
    PureState,
    TwoLevel,
    basis_state,
    coherent_mode_state,
    compose_layout,
    default_coherent_cutoff,
    embed_operator,
    reduced_density,
    superpose,
    tensor,
)

_NORM_TOL = 1e-12


def _check_normalized(alpha: complex, beta: complex):
    n2 = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(n2 - 1.0) > _NORM_TOL:
        raise ValueError(f"(alpha, beta) must be normalized; |a|^2+|b|^2 = {n2!r}")


def rotated_target_state(alpha: complex, beta: complex) -> np.ndarray:
    """Ideal outcome of the half-turn rotation: ((a-b)|g> + (a+b)|e>)/sqrt(2)."""
    return np.array([alpha - beta, alpha + beta], dtype=complex) / math.sqrt(2)


def single_step_analytic_density(alpha: complex, beta: complex) -> np.ndarray:
    """Closed-form reduced target state after one quarter-angle ancilla collision."""
    a, b = complex(alpha), complex(beta)
    apb, amb = a + b, a - b
    off = math.sqrt(2) * (a * np.conj(apb) + amb * np.conj(b))
    m = np.array([
        [2 * abs(a) ** 2 + abs(amb) ** 2, off],
        [np.conj(off), abs(apb) ** 2 + 2 * abs(b) ** 2],
    ], dtype=complex)
    return m / 4.0


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentResult:
    """Labeled scalar outputs with the parameters that produced them."""

    name: str
    params: dict
    scalars: dict

    def __post_init__(self):
        for key, val in self.scalars.items():
            if not math.isfinite(float(val)):
                raise ValueError(f"scalar {key!r} is not finite: {val!r}")


@dataclass(frozen=True)
class RotationProtocolParams:
    """Sequential ancilla-rotation parameters.

    per_step_duration defaults to pi/(2 J N) so the N collisions compose to
    the full half-turn target rotation; pass an explicit value to study other
    pulse areas (pi/(4 J) at N=1 reproduces the single-collision mixed state).
    """

    alpha: complex
    beta: complex
    n_ancillas: int
    per_step_duration: float | None = None

    def __post_init__(self):
        _check_normalized(self.alpha, self.beta)
        if self.n_ancillas < 1:
            raise ValueError(f"n_ancillas must be >= 1, got {self.n_ancillas}")
        if self.per_step_duration is not None and not self.per_step_duration > 0:
            raise ValueError("per_step_duration must be positive")

    @property
    def step_duration(self) -> float:
        if self.per_step_duration is not None:
            return float(self.per_step_duration)
        return math.pi / (2.0 * self.n_ancillas)


@dataclass(frozen=True)
class FermionProtocolParams:
    """Entangled-pair mixing parameters: one angle per pair, same on both sides."""

    n_pairs: int
    angles: tuple

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
        angles = tuple(a.theta if isinstance(a, MixingAngle) else float(a) for a in self.angles)
        if len(angles) != self.n_pairs:
            raise ValueError(f"need {self.n_pairs} angles, got {len(angles)}")
        for a in angles:
            MixingAngle(a)  # range check
        object.__setattr__(self, "angles", angles)


@dataclass(frozen=True)
class Table1Row:
    particle_type: str
    concurrence: float | None
    repetitions: str
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# massless bosons: absorption transfers the mode entanglement to the targets
# ---------------------------------------------------------------------------

def massless_absorption():
    """Absorb a delocalized flying boson into one of two ground-state targets.

    Evolves (|10> + |01>)/sqrt(2) x |gg> under the exchange coupling on each
    side for Jt = pi/2 (full transfer), verifies the flying modes end empty
    with the excitation moved coherently onto the targets, and returns the
    reduced two-target state.
    """
    layout = compose_layout([
        ("fly_l", BosonicMode(1)), ("fly_r", BosonicMode(1)),
        ("tgt_l", TwoLevel), ("tgt_r", TwoLevel),
    ])
    psi0 = superpose([
        (1.0, basis_state(layout, [1, 0, "g", "g"])),
        (1.0, basis_state(layout, [0, 1, "g", "g"])),
    ])
    h = (jc_hamiltonian(layout, CouplingSpec("tgt_l", ("fly_l",)))
         + jc_hamiltonian(layout, CouplingSpec("tgt_r", ("fly_r",))))
    final = evolve(psi0, h, math.pi / 2)

    transferred = superpose([
        (1.0, basis_state(layout, [0, 0, "e", "g"])),
        (1.0, basis_state(layout, [0, 0, "g", "e"])),
    ])
    overlap = abs(final.overlap(transferred))
    if abs(overlap - 1.0) > 1e-10:
        raise RuntimeError(f"absorption missed the transferred state (overlap {overlap!r})")

    n_fly = np.zeros((layout.dim, layout.dim), dtype=complex)
    for lab in ("fly_l", "fly_r"):
        n_fly = n_fly + embed_operator(layout, number_operator(layout.kind_of(lab)), [lab]).matrix
    occupation = float(np.real(np.vdot(final.amplitudes, n_fly @ final.amplitudes)))

    targets = TwoQubitDensity.from_density_op(reduced_density(final, ["tgt_l", "tgt_r"]))
    result = ExperimentResult(
        name="massless_absorption",
        params={"duration": math.pi / 2},
        scalars={
            "concurrence": concurrence(targets),
            "transfer_overlap": overlap,
            "flying_occupation": occupation,
        },
    )
    return targets, result


# ---------------------------------------------------------------------------
# massless fermions: rotations from sequential ancilla collisions
# ---------------------------------------------------------------------------

_ANCILLA_PLUS_RHO = 0.5 * np.ones((2, 2), dtype=complex)


@lru_cache(maxsize=None)
def _collision_unitary(duration: float) -> np.ndarray:
    layout = compose_layout([("target", TwoLevel), ("ancilla", FermionicMode)])
    h = jc_hamiltonian(layout, CouplingSpec("target", ("ancilla",)))
    return propagator(h, duration).matrix


def rotation_step(rho: np.ndarray, duration: float) -> np.ndarray:
    """One collision of the target with a fresh ancilla mode in (|0>+|1>)/sqrt(2).

    Takes and returns plain 2x2 density matrices; exact for the sequential
    protocol because a used ancilla never interacts again.
    """
    u = _collision_unitary(float(duration))
    joint = np.kron(np.asarray(rho, dtype=complex), _ANCILLA_PLUS_RHO)
    out = u @ joint @ u.conj().T
    return np.einsum("ikjk->ij", out.reshape(2, 2, 2, 2))


def single_ancilla_rotation(alpha: complex, beta: complex):
    """One ancilla collision at Jt = pi/4, compared against its closed form.

    Returns (simulated reduced state, closed-form state, fidelity against the
    ideal rotated target).
    """
    _check_normalized(alpha, beta)
    layout = compose_layout([("target", TwoLevel), ("ancilla", FermionicMode)])
    target = superpose([
        (alpha, basis_state(compose_layout([("target", TwoLevel)]), ["g"])),
        (beta, basis_state(compose_layout([("target", TwoLevel)]), ["e"])),
    ])
    ancilla = superpose([
        (1.0, basis_state(compose_layout([("ancilla", FermionicMode)]), [0])),
        (1.0, basis_state(compose_layout([("ancilla", FermionicMode)]), [1])),
    ])
    psi0 = tensor(target, ancilla)
    h = jc_hamiltonian(layout, CouplingSpec("target", ("ancilla",)))
    final = evolve(psi0, h, math.pi / 4)
    simulated = reduced_density(final, ["target"])
    analytic = DensityOp(simulated.layout, single_step_analytic_density(alpha, beta))
    fid = fidelity(simulated, rotated_target_state(alpha, beta))
    return simulated, analytic, fid


def sequential_rotation(params: RotationProtocolParams) -> ExperimentResult:
    """Rotate the target through N collisions with fresh ancilla modes.

    Each step couples the target to a new ancilla in (|0>+|1>)/sqrt(2) for the
    per-step duration and traces the ancilla out before the next step (exact,
    O(N)).  Reports the fidelity against the ideal rotated target.
    """
    psi = np.array([params.alpha, params.beta], dtype=complex)
    rho = np.outer(psi, psi.conj())
    dt = params.step_duration
    for _ in range(params.n_ancillas):
        rho = rotation_step(rho, dt)
    fid = fidelity(rho, rotated_target_state(params.alpha, params.beta))
    return ExperimentResult(
        name="sequential_rotation",
        params={
            "alpha": params.alpha, "beta": params.beta,
            "n_ancillas": params.n_ancillas, "per_step_duration": dt,
        },
        scalars={"fidelity": fid, "infidelity": 1.0 - fid},
    )


# ---------------------------------------------------------------------------
# simultaneous coupling and the collective-mode reduction
# ---------------------------------------------------------------------------

def _symmetric_ladder(n_modes: int) -> np.ndarray:
    """Annihilation matrix of the collective mode on the symmetric occupation ladder."""
    d = n_modes + 1
    b = np.zeros((d, d), dtype=complex)
    for m in range(1, d):
        b[m - 1, m] = math.sqrt(m * (n_modes - m + 1) / n_modes)
    return b


def collective_mode_reference(n_modes: int, alpha: complex, beta: complex,
                              duration: float) -> DensityOp:
    """Reduced target state when the N modes are replaced by the one collective
    mode they address: coupling sqrt(N) J on the symmetric ladder, initial mode
    amplitudes sqrt(C(N, m)) 2^(-N/2)."""
    d = n_modes + 1
    layout = compose_layout([("target", TwoLevel), ("collective", BosonicMode(n_modes))])
    b = _symmetric_ladder(n_modes)
    h = math.sqrt(n_modes) * (
        1j * np.kron(dynamics.SIGMA_PLUS, b) - 1j * np.kron(dynamics.SIGMA_MINUS, b.conj().T))
    chi = np.array([math.sqrt(math.comb(n_modes, m)) * 2 ** (-n_modes / 2) for m in range(d)],
                   dtype=complex)
    psi0 = PureState(layout, np.kron(np.array([alpha, beta], dtype=complex), chi))
    final = evolve(psi0, LinearOp(layout, h), duration)
    return reduced_density(final, ["target"])


def simultaneous_coupling_check(n_modes: int, alpha: complex = 1.0,
                                beta: complex = 0.0) -> ExperimentResult:
    """Couple the target to all N ancilla modes at once and compare with the
    single collective mode they form.

    Evolves target + N modes (each in (|0>+|1>)/sqrt(2)) under the summed
    coupling for total duration pi/(4 sqrt(N)) and reports the trace distance
    to the collective-mode reduction, the fidelity either way (their gap is
    the "gain" from simultaneous coupling, zero to rounding), and the fidelity
    a literal one-fermionic-ancilla collision would give.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    _check_normalized(alpha, beta)
    duration = math.pi / (4.0 * math.sqrt(n_modes))

    subsystems = [("target", TwoLevel)] + [(f"mode{k}", FermionicMode) for k in range(n_modes)]
    layout = compose_layout(subsystems)
    amps = np.array([alpha, beta], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    for _ in range(n_modes):
        amps = np.kron(amps, plus)
    psi0 = PureState(layout, amps)
    h = collective_jc_hamiltonian(
        layout, CouplingSpec("target", tuple(f"mode{k}" for k in range(n_modes))))
    final = evolve(psi0, h, duration)
    simultaneous = reduced_density(final, ["target"])

    collective = collective_mode_reference(n_modes, alpha, beta, duration)

    ideal = rotated_target_state(alpha, beta)
    f_sim = fidelity(simultaneous, ideal)
    f_coll = fidelity(collective, ideal)
    f_single = single_ancilla_rotation(alpha, beta)[2]
    return ExperimentResult(
        name="simultaneous_coupling_check",
        params={"n_modes": n_modes, "alpha": alpha, "beta": beta, "duration": duration},
        scalars={
            "trace_distance": trace_distance(simultaneous, collective),
            "overlap": state_overlap(simultaneous, collective),
            "fidelity_simultaneous": f_sim,
            "fidelity_collective": f_coll,
            "fidelity_gain": f_sim - f_coll,
            "fidelity_one_fermionic_ancilla": f_single,
        },
    )


# ---------------------------------------------------------------------------
# massive fermions: discarding the flying particle into entangled ancilla pairs
# ---------------------------------------------------------------------------

# (|10> + |01>)/sqrt(2) over (anc_l, anc_r): one particle shared by a pair
_SHARED_PAIR = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)


def _pair_mixing(n_pairs: int):
    """Reduced-target map of the pairwise mixing sequence over ``n_pairs`` pairs.

    Builds the initial amplitudes once, as a tensor over (tgt_l, tgt_r, fly_l,
    fly_r, anc1_l, anc1_r, ..., ancN_l, ancN_r) in the basis contract's
    row-major order, and returns a function mapping an angle tuple to the 4x4
    reduced density matrix of (tgt_l, tgt_r).  Pair j's rotation mixes
    (tgt=e, fly=1, anc=0) with (tgt=e, fly=0, anc=1) on each side, applied in
    place on strided views of a copy of the initial amplitudes.
    """
    initial = np.zeros((2, 2, 2, 2), dtype=complex)
    initial[1, 0, 1, 0] = initial[0, 1, 0, 1] = 1.0 / math.sqrt(2)
    for _ in range(n_pairs):
        initial = np.multiply.outer(initial, _SHARED_PAIR)
    initial = initial.ravel()

    def reduced_targets(angles) -> np.ndarray:
        psi = initial.copy()
        for j, theta in enumerate(angles):
            c, s = math.cos(theta), math.sin(theta)
            # axes: tgt_l, tgt_r, fly_l, fly_r, earlier pairs, anc_l, anc_r, later pairs
            v = psi.reshape(2, 2, 2, 2, 4 ** j, 2, 2, -1)
            for x1, x2 in ((v[1, :, 1, :, :, 0], v[1, :, 0, :, :, 1]),
                           (v[:, 1, :, 1, :, :, 0], v[:, 1, :, 0, :, :, 1])):
                v1 = x1.copy()
                x1[...] = c * v1 - s * x2
                x2[...] = s * v1 + c * x2
        x = psi.reshape(4, -1)
        return x @ x.conj().T

    return reduced_targets


def massive_fermion_protocol(params: FermionProtocolParams):
    """Run the pairwise mixing sequence and reduce to the two targets.

    Starts from (|10>|eg> + |01>|ge>)/sqrt(2) with N ancilla pairs each
    sharing one delocalized particle; pair j is consumed by applying the
    mixing rotation with angle theta_j on the left and right triples (the two
    sides commute).  Returns the reduced two-target state and its concurrence.
    """
    targets = TwoQubitDensity(_pair_mixing(params.n_pairs)(params.angles))
    return targets, concurrence(targets)


def optimize_angles(n_pairs: int, grid_points: int, refine_rounds: int):
    """Exhaustive angle grid over [0, pi]^n_pairs plus local refinement.

    Each refinement round halves the step and scans incumbent +/- two steps
    per axis (clipped to [0, pi]); ties go to the lexicographically smallest
    angle tuple.

    Returns
    -------
    (best_angles, best_concurrence, grid)
        ``grid`` holds the full initial grid as rows (theta_1, ..., concurrence)
        for export.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if grid_points < 8:
        raise ValueError(f"grid_points must be >= 8, got {grid_points}")
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be >= 0, got {refine_rounds}")
    reduced_targets = _pair_mixing(n_pairs)
    axes = [np.linspace(0.0, math.pi, grid_points)] * n_pairs
    step = math.pi / (grid_points - 1)
    best_c, best_t, grid_rows = -1.0, None, None
    for _ in range(refine_rounds + 1):
        rows = []
        for combo in itertools.product(*axes):
            angles = tuple(float(t) for t in combo)
            c = concurrence(TwoQubitDensity(reduced_targets(angles)))
            rows.append(angles + (c,))
            if c > best_c or (c == best_c and angles < best_t):
                best_c, best_t = c, angles
        if grid_rows is None:
            grid_rows = rows
        step /= 2.0
        axes = [sorted({min(math.pi, max(0.0, t + k * step)) for k in range(-2, 3)})
                for t in best_t]
    return best_t, best_c, grid_rows


# ---------------------------------------------------------------------------
# classical-field limit: rotation driven by a coherent mode
# ---------------------------------------------------------------------------

def coherent_field_rotation(alpha: complex, beta: complex, eta: complex,
                            cutoff: int | None = None) -> ExperimentResult:
    """Rotate the target with a truncated coherent mode for Jt = pi/(4 |eta|).

    At eta = 0 the coupling time is zero (vacuum ancilla, no rotation); as
    |eta| grows the mode approaches a classical drive and the fidelity against
    the ideal rotated target improves.
    """
    _check_normalized(alpha, beta)
    if cutoff is None:
        cutoff = default_coherent_cutoff(eta)
    mode, weight = coherent_mode_state(cutoff, eta, label="field")
    if weight > 1e-8:
        raise ValueError(
            f"cutoff {cutoff} too small for |eta| = {abs(eta)}: truncation weight {weight:.3e}")
    target_layout = compose_layout([("target", TwoLevel)])
    target = superpose([(alpha, basis_state(target_layout, ["g"])),
                        (beta, basis_state(target_layout, ["e"]))])
    psi0 = tensor(target, mode)
    duration = 0.0 if abs(eta) == 0 else math.pi / (4.0 * abs(eta))
    h = jc_hamiltonian(psi0.layout, CouplingSpec("target", ("field",)))
    final = evolve(psi0, h, duration)
    reduced = reduced_density(final, ["target"])
    fid = fidelity(reduced, rotated_target_state(alpha, beta))
    return ExperimentResult(
        name="coherent_field_rotation",
        params={"alpha": alpha, "beta": beta, "eta": eta, "cutoff": cutoff,
                "duration": duration},
        scalars={"fidelity": fid, "infidelity": 1.0 - fid, "truncation_weight": weight},
    )


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

def table1_summary(n_ancilla: int):
    """Concurrence between the targets for one flying particle, per particle class.

    The repetition column is a fixed annotation (unbounded reuse for the first
    three rows, N for massive fermions), not a simulation.  The massless
    fermion concurrence is asymptotic in the ancilla count, so the row carries
    no finite-N value; the sequential-rotation fidelity at the given N is
    reported as evidence instead.
    """
    if n_ancilla < 1:
        raise ValueError(f"n_ancilla must be >= 1, got {n_ancilla}")

    _, absorption = massless_absorption()
    row_boson_massless = Table1Row(
        "massless bosons", absorption.scalars["concurrence"], "inf",
        details={"transfer_overlap": absorption.scalars["transfer_overlap"]})

    gamma = 1.0 - 1.0 / (2.0 * n_ancilla)
    row_boson_massive = Table1Row(
        "massive bosons", concurrence(target_pair_density(gamma)), "inf",
        details={"gamma": gamma})

    seq = sequential_rotation(RotationProtocolParams(0.8, 0.6, n_ancilla))
    row_fermion_massless = Table1Row(
        "massless fermions", None, "inf",
        details={"asymptotic_concurrence": 1.0,
                 "sequential_fidelity": seq.scalars["fidelity"]})

    best_t, best_c, _ = optimize_angles(1, 64, 12)
    row_fermion_massive = Table1Row(
        "massive fermions", best_c, str(n_ancilla),
        details={"optimal_angle": best_t[0]})

    return [row_boson_massless, row_boson_massive, row_fermion_massless, row_fermion_massive]
