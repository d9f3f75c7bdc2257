"""End-to-end experiments: absorption, ancilla rotations, collective coupling,
the entangled-pair mixing protocol, angle optimization, and the summary table.

Conventions: J = 1 (times in units of 1/J), flying/ancilla occupations use
hard-core modes, target qubits use the (g, e) basis.  Every protocol is
deterministic, and independent runs share no mutable state (numpy's BLAS
may still split one run's products across threads).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .dynamics import _coupling_propagate, _finite_time, _propagate
from .entanglement import (
    TWO_TARGETS,
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
    NORM_TOL,
    PureState,
    TwoLevel,
    _amplitudes_from_log_ratios,
    _is_count,
    basis_state,
    coherent_mode_state,
    compose_layout,
    default_coherent_cutoff,
    reduced_density,
    superpose,
)


_TARGET = compose_layout([("target", TwoLevel)])


def _check_normalized(alpha: complex, beta: complex):
    n2 = abs(alpha) ** 2 + abs(beta) ** 2
    # written as "not <=" so that a NaN is rejected too
    if not abs(n2 - 1.0) <= NORM_TOL:
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


def _check_count(name: str, value):
    if not _is_count(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _finite(scalars: dict) -> dict:
    """``scalars``, after refusing a value that is not finite."""
    for key, val in scalars.items():
        if not math.isfinite(float(val)):
            raise ValueError(f"scalar {key!r} is not finite: {val!r}")
    return scalars


# Largest ancilla count of the sequential rotation.  Each collision lasts
# pi/(2N), so its dephasing, of order (pi/2N)^2, sinks below the float64
# rounding of the channel's entries as N grows: against a 50-digit evaluation
# of the same channel, the worst fidelity error over 12 inputs is 2.2e-11 at
# N = 2^17, 1.6e-10 at 2^20, 1.2e-9 at 2^22 and 2.2e-7 at 10^9.
MAX_ANCILLAS = 2 ** 20


# ---------------------------------------------------------------------------
# massless bosons: absorption transfers the mode entanglement to the targets
# ---------------------------------------------------------------------------

def massless_absorption():
    """Absorb a delocalized flying boson into one of two ground-state targets.

    Evolves (|10> + |01>)/sqrt(2) x |gg> under the exchange coupling on each
    side for Jt = pi/2 (full transfer), verifies the flying modes end empty
    with the excitation moved coherently onto the targets, and returns the
    reduced two-target state and the scalars ``concurrence``,
    ``transfer_overlap`` and ``flying_occupation``.

    The layout lists each side's target before its flying mode, (tgt_l,
    fly_l, tgt_r, fly_r), so each side is one target-first ladder of one
    doublet, coupling 1.  ``dynamics._propagate`` turns the (4, 4) amplitudes
    over (left pair, right pair) in closed form: the left side on the
    columns, then the right side on the rows; the two sides commute.
    """
    layout = compose_layout([("tgt_l", TwoLevel), ("fly_l", BosonicMode(1)),
                             ("tgt_r", TwoLevel), ("fly_r", BosonicMode(1))])
    psi0 = superpose([(1.0, basis_state(layout, ["g", 1, "g", 0])),
                      (1.0, basis_state(layout, ["g", 0, "g", 1]))])
    amps = _propagate(np.ones(1), psi0.amplitudes.reshape(4, 4), math.pi / 2)
    final = PureState(layout, _propagate(np.ones(1), amps.T, math.pi / 2).T)

    transferred = superpose([(1.0, basis_state(layout, ["e", 0, "g", 0])),
                             (1.0, basis_state(layout, ["g", 0, "e", 0]))])
    overlap = abs(final.overlap(transferred))
    if abs(overlap - 1.0) > 1e-10:
        raise RuntimeError(f"absorption missed the transferred state (overlap {overlap!r})")

    # <n_fly_l + n_fly_r>: the levels of the flying modes, axes 1 and 3 of
    # the layout, are their occupation numbers
    n_fly = np.indices(layout.dims)[[1, 3]].sum(axis=0).ravel()
    occupation = float(np.sum(np.abs(final.amplitudes) ** 2 * n_fly))

    targets = reduced_density(final, TWO_TARGETS.labels)
    return targets, _finite({
        "concurrence": concurrence(targets),
        "transfer_overlap": overlap,
        "flying_occupation": occupation,
    })


# ---------------------------------------------------------------------------
# massless fermions: rotations from sequential ancilla collisions
# ---------------------------------------------------------------------------

_ANCILLA_PLUS_RHO = 0.5 * np.ones((2, 2), dtype=complex)
# the amplitude of each level of (|0>+|1>)/sqrt(2), as a complex scalar
_PLUS_AMPLITUDE = (np.ones(1, dtype=complex) / math.sqrt(2))[0]


def _collision_channel(duration: float) -> np.ndarray:
    """The 4x4 matrix S of one collision of that duration on vec(rho).

    A collision couples the target to a fresh ancilla mode in
    (|0>+|1>)/sqrt(2) by U = exp(-i H t), one doublet of coupling 1 in closed
    form (``dynamics._propagate``; column j is U|j>), and traces the ancilla
    out: S @ rho.ravel() is the collided rho, raveled.  Column j is the
    collision of the j-th 2x2 matrix unit.  Exact for the sequential protocol
    because a used ancilla never interacts again.
    """
    u = _propagate(np.ones(1), np.eye(4, dtype=complex), _finite_time(duration))
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    # each unit (x) the ancilla's state, and the partial trace over the
    # ancilla, written out for the four units at once: the same products and
    # sums as np.kron and einsum, without their per-call overhead
    joint = (units[:, :, None, :, None] * _ANCILLA_PLUS_RHO[:, None, :]).reshape(4, 4, 4)
    r = (u @ joint @ u.conj().T).reshape(4, 2, 2, 2, 2)
    return (r[:, :, 0, :, 0] + r[:, :, 1, :, 1]).reshape(4, 4).T


def single_ancilla_rotation(alpha: complex, beta: complex):
    """One ancilla collision at Jt = pi/4; ``single_step_analytic_density`` is
    its closed form.

    One fermionic ancilla in (|0>+|1>)/sqrt(2) is the collective mode of
    N = 1 (``collective_mode_reference``): the ladder of one doublet, coupling
    1, with the mode amplitudes (1, 1)/sqrt(2).

    Returns (simulated reduced state, fidelity against the ideal rotated
    target).
    """
    _check_normalized(alpha, beta)
    # (alpha, beta) is normalized only to 1e-12; dividing by the norm keeps
    # the printed fidelity on its golden bytes, which move in the 12th digit
    # for about a third of accepted inputs without it
    psi = np.array([alpha, beta], dtype=complex)
    psi = psi / np.linalg.norm(psi)
    simulated = collective_mode_reference(1, psi[0], psi[1], math.pi / 4)
    return simulated, fidelity(simulated, rotated_target_state(alpha, beta))


def sequential_rotation(alpha: complex, beta: complex, n_ancillas: int) -> dict:
    """Rotate the target through N = ``n_ancillas`` collisions with fresh ancilla modes.

    Each collision couples the target to a new ancilla in (|0>+|1>)/sqrt(2)
    for pi/(2 J N), so that the N collisions compose to the full half-turn,
    and traces the ancilla out; the N collisions are thus N applications of
    one linear map on vec(rho), the 4x4 ``_collision_channel`` S.  The run
    applies S^N, a matrix power taken by repeated squaring in O(log N) 4x4
    products; ``MAX_ANCILLAS`` bounds N where float64 keeps the fidelity to
    2e-10.  Returns the scalars ``fidelity`` against the ideal rotated target
    and ``infidelity``.
    """
    _check_normalized(alpha, beta)
    _check_count("n_ancillas", n_ancillas)
    if not 1 <= n_ancillas <= MAX_ANCILLAS:
        raise ValueError(f"n_ancillas must be in [1,{MAX_ANCILLAS}], got {n_ancillas}")
    psi = np.array([alpha, beta], dtype=complex)
    dt = math.pi / (2.0 * n_ancillas)
    s_n = np.linalg.matrix_power(_collision_channel(dt), n_ancillas)
    rho = (s_n @ np.outer(psi, psi.conj()).ravel()).reshape(2, 2)
    fid = fidelity(rho, rotated_target_state(alpha, beta))
    return _finite({"fidelity": fid, "infidelity": 1.0 - fid})


# ---------------------------------------------------------------------------
# simultaneous coupling and the collective-mode reduction
# ---------------------------------------------------------------------------

def _ladder_target(b, c, psi, t: float) -> DensityOp:
    """The reduced target state after the target, in ``psi`` = (alpha, beta),
    has coupled for time t to one ladder in the amplitudes ``c`` (L + 1,) of
    its levels, with the couplings ``b`` (L,) of levels n = 1 .. L
    (``dynamics._propagate``): the Gram matrix of the target's two rows."""
    rows = _propagate(b, np.multiply.outer(psi, c).ravel(), t).reshape(2, -1)
    return DensityOp(_TARGET, rows @ rows.conj().T)


def _check_n_modes(n_modes):
    _check_count("n_modes", n_modes)
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")


def _binomial_amplitudes(n: int) -> np.ndarray:
    """sqrt(C(n, m)) 2^(-n/2) for m = 0 .. n, from the ratios of successive
    amplitudes, log(c_m / c_{m-1}) = log1p((n + 1 - 2m)/m) / 2
    (``_amplitudes_from_log_ratios``): each amplitude keeps its relative
    accuracy at large n, and no C(n, m) overflows a float."""
    m = np.arange(1, n + 1)
    return _amplitudes_from_log_ratios(0.5 * np.log1p((n + 1 - 2 * m) / m))


def collective_mode_reference(n_modes: int, alpha: complex, beta: complex,
                              duration: float) -> DensityOp:
    """Reduced target state when the N modes are replaced by the one collective
    mode they address: coupling sqrt(N) J on the symmetric ladder
    <m-1| b |m> = sqrt(m (N - m + 1) / N), so the couplings sqrt(m (N - m + 1)),
    from the initial mode amplitudes sqrt(C(N, m)) 2^(-N/2)
    (``_binomial_amplitudes``).  The state comes in closed form from the
    ladder's doublets (``_ladder_target``), in O(N)."""
    _check_n_modes(n_modes)
    _check_normalized(alpha, beta)
    duration = _finite_time(duration)
    m = np.arange(1, n_modes + 1)
    couplings = np.sqrt(m * (n_modes + 1 - m))
    return _ladder_target(couplings, _binomial_amplitudes(n_modes),
                          np.array([alpha, beta], dtype=complex), duration)


def simultaneous_coupling_check(n_modes: int, alpha: complex = 1.0,
                                beta: complex = 0.0) -> dict:
    """Couple the target to all N ancilla modes at once and compare with the
    single collective mode they form.

    Evolves target + N modes (each in (|0>+|1>)/sqrt(2)) under the summed
    coupling for total duration pi/(4 sqrt(N)) and reports the trace distance
    to the collective-mode reduction, the fidelity either way (their gap is
    the "gain" from simultaneous coupling, zero to rounding), and the fidelity
    a literal one-fermionic-ancilla collision would give.  The coupled run is
    ``dynamics._coupling_propagate``, on the coupling's own product: no
    Hamiltonian triplets are built.
    """
    _check_n_modes(n_modes)
    # one collision's fidelity; this also checks (alpha, beta) before the coupled run
    f_single = single_ancilla_rotation(alpha, beta)[1]
    duration = math.pi / (4.0 * math.sqrt(n_modes))

    subsystems = [("target", TwoLevel)] + [(f"mode{k}", FermionicMode) for k in range(n_modes)]
    layout = compose_layout(subsystems)
    # (alpha, beta) (x) |+>^N: each of the two amplitudes times 1/sqrt(2) N
    # times, as N np.kron calls would take it, then repeated over the modes
    pair = np.array([alpha, beta], dtype=complex)
    for _ in range(n_modes):
        pair = pair * _PLUS_AMPLITUDE
    amps = _coupling_propagate(layout, "target", layout.labels[1:],
                               np.repeat(pair, 2 ** n_modes), duration)
    simultaneous = reduced_density(PureState(layout, amps), ["target"])

    collective = collective_mode_reference(n_modes, alpha, beta, duration)

    ideal = rotated_target_state(alpha, beta)
    f_sim = fidelity(simultaneous, ideal)
    f_coll = fidelity(collective, ideal)
    return _finite({
        "trace_distance": trace_distance(simultaneous, collective),
        "overlap": state_overlap(simultaneous, collective),
        "fidelity_simultaneous": f_sim,
        "fidelity_collective": f_coll,
        "fidelity_gain": f_sim - f_coll,
        "fidelity_one_fermionic_ancilla": f_single,
    })


# ---------------------------------------------------------------------------
# massive fermions: discarding the flying particle into entangled ancilla pairs
# ---------------------------------------------------------------------------

# (|10> + |01>)/sqrt(2) over (anc_l, anc_r): one particle shared by a pair
_SHARED_PAIR = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)


# bytes of mixed amplitudes per chunk of grid points in ``optimize_angles``
_CHUNK_BYTES = 2 ** 21


def _pair_mixing(angles) -> np.ndarray:
    """Amplitudes after the pairwise mixing sequence, one row per point.

    ``angles`` is (m, n_pairs): one angle per pair for each of m points.  Row i
    of the (m, 16 * 4^n_pairs) result is the state over (tgt_l, tgt_r, fly_l,
    fly_r, anc1_l, anc1_r, ..., ancN_l, ancN_r), in the basis contract's
    row-major order, after point i's rotations.  Pair j's rotation mixes
    (tgt=e, fly=1, anc=0) with (tgt=e, fly=0, anc=1) on each side, applied in
    place on strided views with the points on the leading axis.
    """
    angles = np.asarray(angles, dtype=float)
    m, n_pairs = angles.shape
    initial = np.zeros((2, 2, 2, 2), dtype=complex)
    initial[1, 0, 1, 0] = initial[0, 1, 0, 1] = 1.0 / math.sqrt(2)
    for _ in range(n_pairs):
        initial = np.multiply.outer(initial, _SHARED_PAIR)
    psi = np.empty((m, initial.size), dtype=complex)
    psi[...] = initial.ravel()
    for j, thetas in enumerate(angles.T.tolist()):
        # libm's cos and sin, as a scalar loop takes them: numpy's own SIMD
        # versions may differ in the last bit on some CPUs
        c = np.array([math.cos(t) for t in thetas]).reshape(m, 1, 1, 1, 1, 1)
        s = np.array([math.sin(t) for t in thetas]).reshape(m, 1, 1, 1, 1, 1)
        # axes: point, tgt_l, tgt_r, fly_l, fly_r, earlier pairs, anc_l, anc_r, later pairs
        v = psi.reshape(m, 2, 2, 2, 2, 4 ** j, 2, 2, -1)
        for x1, x2 in ((v[:, 1, :, 1, :, :, 0], v[:, 1, :, 0, :, :, 1]),
                       (v[:, :, 1, :, 1, :, :, 0], v[:, :, 1, :, 0, :, :, 1])):
            v1 = x1.copy()
            x1[...] = c * v1 - s * x2
            x2[...] = s * v1 + c * x2
    return psi


def _reduced_targets(angles) -> np.ndarray:
    """(m, 4, 4) reduced density matrices of (tgt_l, tgt_r) after the pairwise
    mixing sequence at each of the m angle rows of ``angles``."""
    x = _pair_mixing(angles).reshape(len(angles), 4, -1)
    return x @ x.conj().transpose(0, 2, 1)


def massive_fermion_protocol(angles):
    """Run the pairwise mixing sequence and reduce to the two targets.

    Starts from (|10>|eg> + |01>|ge>)/sqrt(2) with N = len(angles) ancilla
    pairs each sharing one delocalized particle; pair j is consumed by
    applying the mixing rotation with angle theta_j = angles[j] in [0, pi] on
    the left and right triples (the two sides commute).  Returns the reduced
    two-target state and its concurrence.
    """
    if isinstance(angles, str):
        raise TypeError(f"angles must be a sequence of numbers, not the string {angles!r}")
    angles = tuple(float(a) for a in angles)
    if not angles:
        raise ValueError("n_pairs must be >= 1, got 0")
    for a in angles:
        # written as "not <=" so that a NaN angle is rejected too
        if not 0.0 <= a <= math.pi:
            raise ValueError(f"mixing angle must lie in [0, pi], got {a}")
    targets = DensityOp(TWO_TARGETS, _reduced_targets([angles])[0])
    return targets, concurrence(targets)


def optimize_angles(n_pairs: int, grid_points: int, refine_rounds: int):
    """Exhaustive angle grid over [0, pi]^n_pairs plus local refinement.

    Each refinement round halves the step and scans incumbent +/- two steps
    per axis (clipped to [0, pi]).  A round holds its points, in product
    order, as one (rows, n_pairs) array, evaluates them in stacks of up to
    ``_CHUNK_BYTES`` of amplitudes into one concurrence array, and takes its
    best point by ``np.argmax``; ties go to the lexicographically smallest
    angle tuple.

    Returns
    -------
    (best_angles, best_concurrence, grid)
        ``grid`` holds the full initial grid as rows (theta_1, ..., concurrence)
        for export.
    """
    _check_count("n_pairs", n_pairs)
    _check_count("grid_points", grid_points)
    _check_count("refine_rounds", refine_rounds)
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if grid_points < 8:
        raise ValueError(f"grid_points must be >= 8, got {grid_points}")
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be >= 0, got {refine_rounds}")
    chunk = max(1, _CHUNK_BYTES // (16 * 16 * 4 ** n_pairs))
    axes = [np.linspace(0.0, math.pi, grid_points)] * n_pairs
    step = math.pi / (grid_points - 1)
    for round_ in range(refine_rounds + 1):
        # the axes ascend, so product order is lexicographic: the first
        # maximum is the smallest angle tuple among the maxima, and since
        # every refinement scan contains the incumbent, no round loses it
        points = np.array(list(itertools.product(*axes)))
        values = np.concatenate([concurrence(_reduced_targets(points[i:i + chunk]))
                                 for i in range(0, len(points), chunk)])
        if round_ == 0:
            grid_rows = list(map(tuple, np.column_stack((points, values)).tolist()))
        best = np.argmax(values)
        best_t, best_c = tuple(points[best].tolist()), float(values[best])
        step /= 2.0
        axes = [sorted({min(math.pi, max(0.0, t + k * step)) for k in range(-2, 3)})
                for t in best_t]
    return best_t, best_c, grid_rows


# ---------------------------------------------------------------------------
# classical-field limit: rotation driven by a coherent mode
# ---------------------------------------------------------------------------

def coherent_field_rotation(alpha: complex, beta: complex, eta: float,
                            cutoff: int | None = None) -> dict:
    """Rotate the target with a truncated coherent mode for Jt = pi/(4 eta).

    eta is a real number >= 0; a positive eta so small that the largest
    phase of the run, sqrt(cutoff) pi/(4 eta), overflows is refused.  At
    eta = 0 the coupling time is zero (vacuum ancilla, no rotation); as eta
    grows the mode approaches a classical drive and the fidelity against the
    ideal rotated target improves.  The target and the field evolve in
    closed form on the field's ladder, couplings sqrt(n) (``_ladder_target``),
    from the input renormalized to unit norm.  Returns the scalars
    ``fidelity``, ``infidelity`` and the mode's ``truncation_weight``.
    """
    _check_normalized(alpha, beta)
    if cutoff is None:
        cutoff = default_coherent_cutoff(eta)
    # the ideal is the half-turn of a real positive field: a negative or
    # complex eta turns the target another way
    z = complex(eta)
    if z.imag != 0 or not z.real >= 0:
        raise ValueError(f"eta must be a real number >= 0, got {eta!r}")
    eta = z.real
    duration = 0.0 if eta == 0 else math.pi / (4.0 * eta)
    # the run's largest phase is that of the top coupling, sqrt(cutoff);
    # checked before the mode is built, whose amplitudes underflow at such an eta
    if not math.isfinite(math.sqrt(BosonicMode(cutoff).cutoff) * duration):
        raise ValueError(f"eta {eta!r} is too small: the largest phase "
                         f"sqrt(cutoff) pi/(4 eta) overflows")
    mode, weight = coherent_mode_state(cutoff, eta)
    if weight > 1e-8:
        raise ValueError(
            f"cutoff {cutoff} too small for |eta| = {eta}: truncation weight {weight:.3e}")
    psi = np.array([alpha, beta], dtype=complex)
    # the field's ladder has the couplings sqrt(n), n = 1 .. cutoff
    couplings = np.sqrt(np.arange(1.0, mode.amplitudes.size))
    reduced = _ladder_target(couplings, mode.amplitudes, psi / np.linalg.norm(psi), duration)
    fid = fidelity(reduced, rotated_target_state(alpha, beta))
    return _finite({"fidelity": fid, "infidelity": 1.0 - fid, "truncation_weight": weight})


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

def table1_summary(n_ancilla: int):
    """Concurrence between the targets for one flying particle, per particle class.

    Returns (rows, scalars).  Each row is a ``(particle_type, concurrence,
    repetitions)`` tuple; the repetition column is a fixed annotation
    (unbounded reuse for the first three rows, N for massive fermions), not a
    simulation.  The scalars are the rows' evidence, keyed by particle type
    and quantity.  The massless fermion concurrence is asymptotic in the
    ancilla count, so its row carries no finite-N value; the
    sequential-rotation fidelity at the given N is its evidence instead.
    """
    # first: it also refuses an N that is not an integer in [1, MAX_ANCILLAS]
    # before any other row runs
    seq = sequential_rotation(0.8, 0.6, n_ancilla)
    _, absorption = massless_absorption()
    gamma = 1.0 - 1.0 / (2.0 * n_ancilla)
    best_t, best_c, _ = optimize_angles(1, 64, 12)
    rows = [
        ("massless bosons", absorption["concurrence"], "inf"),
        ("massive bosons", concurrence(target_pair_density(gamma)), "inf"),
        ("massless fermions", None, "inf"),
        ("massive fermions", best_c, str(n_ancilla)),
    ]
    return rows, {
        "massless_bosons_transfer_overlap": absorption["transfer_overlap"],
        "massive_bosons_gamma": gamma,
        "massless_fermions_asymptotic_concurrence": 1.0,
        "massless_fermions_sequential_fidelity": seq["fidelity"],
        "massive_fermions_optimal_angle": best_t[0],
    }
