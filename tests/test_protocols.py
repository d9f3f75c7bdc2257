import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import (
    collision_unitary,
    dense_mixing,
    kron_rotation_step,
    pair_protocol_state,
    pointwise_optimize_angles,
    rand_amplitude_pair,
    rand_pure_vector,
)
from modent import (
    BosonicMode,
    LinearOp,
    PureState,
    TwoLevel,
    coherent_field_rotation,
    coherent_mode_state,
    compose_layout,
    evolve,
    default_coherent_cutoff,
    jc_hamiltonian,
    massive_fermion_protocol,
    massless_absorption,
    optimize_angles,
    reduced_density,
    rotated_target_state,
    sequential_rotation,
    simultaneous_coupling_check,
    single_ancilla_rotation,
    table1_summary,
    target_pair_density,
    tensor,
)
from modent import protocols
from modent.protocols import (
    MAX_ANCILLAS,
    _collision_channel,
    _pair_mixing,
    _reduced_targets,
    single_step_analytic_density,
)

SQ2 = math.sqrt(2)


# ---------------------------------------------------------------------------
# massless bosons: absorption
# ---------------------------------------------------------------------------

def test_absorption_produces_symmetric_bell_pair():
    targets, result = massless_absorption()
    bell = np.array([0, 1, 1, 0]) / SQ2  # (|ge> + |eg>)/sqrt(2) in {gg, ge, eg, ee}
    assert np.allclose(targets.matrix, np.outer(bell, bell), atol=1e-12)
    assert abs(result["concurrence"] - 1.0) < 1e-10
    assert result["flying_occupation"] < 1e-12
    assert abs(result["transfer_overlap"] - 1.0) < 1e-10


def test_absorption_refuses_a_missed_transfer(monkeypatch):
    # a propagation that leaves the state where it was misses the transfer
    monkeypatch.setattr(protocols, "_propagate", lambda b, amplitudes, t: amplitudes)
    with pytest.raises(RuntimeError, match="absorption missed the transferred state"):
        massless_absorption()


# ---------------------------------------------------------------------------
# single ancilla collision
# ---------------------------------------------------------------------------

def test_single_collision_closed_form_ground_input():
    _, fid = single_ancilla_rotation(1.0, 0.0)
    analytic = single_step_analytic_density(1.0, 0.0)
    assert np.allclose(analytic, np.array([[3, SQ2], [SQ2, 1]]) / 4, atol=1e-14)
    assert abs(fid - (2 + SQ2) / 4) < 1e-12


def test_single_collision_closed_form_excited_input():
    analytic = single_step_analytic_density(0.0, 1.0)
    assert np.allclose(analytic, np.array([[1, -SQ2], [-SQ2, 3]]) / 4, atol=1e-14)


def test_single_collision_simulation_matches_closed_form():
    rng = np.random.default_rng(100)
    for _ in range(50):
        alpha, beta = rand_amplitude_pair(rng)
        simulated, _ = single_ancilla_rotation(alpha, beta)
        analytic = single_step_analytic_density(alpha, beta)
        assert np.max(np.abs(simulated.matrix - analytic)) < 1e-10


def test_single_collision_rejects_unnormalized_input():
    with pytest.raises(ValueError, match="normalized"):
        single_ancilla_rotation(1.0, 1.0)


# ---------------------------------------------------------------------------
# sequential rotation
# ---------------------------------------------------------------------------

def test_sequential_default_single_step_from_ground():
    # from |g> the full half-turn pulse transfers the ancilla particle exactly
    res = sequential_rotation(1.0, 0.0, 1)
    assert abs(res["fidelity"] - 1.0) < 1e-12


def test_sequential_error_halves_when_ancilla_count_doubles():
    rng = np.random.default_rng(200)
    for _ in range(10):
        alpha, beta = rand_amplitude_pair(rng)
        e16 = sequential_rotation(alpha, beta, 16)["infidelity"]
        e32 = sequential_rotation(alpha, beta, 32)["infidelity"]
        assert abs(e16 / (2 * e32) - 1) < 0.1


def test_sequential_many_ancillas_high_fidelity():
    rng = np.random.default_rng(300)
    for _ in range(20):
        alpha, beta = rand_amplitude_pair(rng)
        res = sequential_rotation(alpha, beta, 64)
        assert res["fidelity"] > 0.99


def test_rotation_step_preserves_trace_and_positivity():
    rng = np.random.default_rng(400)
    alpha, beta = rand_amplitude_pair(rng)
    psi = np.array([alpha, beta])
    rho = np.outer(psi, psi.conj())
    n = 12
    channel = _collision_channel(math.pi / (2 * n))
    rho0 = rho
    for _ in range(n):
        rho = (channel @ rho.ravel()).reshape(2, 2)
        assert abs(np.trace(rho).real - 1) < 1e-10
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10
    # the channel power at the largest accepted ancilla count
    s_n = np.linalg.matrix_power(_collision_channel(math.pi / (2 * MAX_ANCILLAS)), MAX_ANCILLAS)
    rho = (s_n @ rho0.ravel()).reshape(2, 2)
    assert abs(np.trace(rho) - 1) < 1e-9
    assert np.min(np.linalg.eigvalsh(rho)) > 0


def test_rotation_step_matches_kron_oracle_bit_for_bit():
    # the channel matrix's columns are the kron oracle's collision of the four
    # matrix units, bit for bit; its N-th power is the oracle's N collisions,
    # one by one, up to rounding
    rng = np.random.default_rng(410)
    for n in (1, 2, 3, 7, 16, 64, 384, 1024):
        alpha, beta = rand_amplitude_pair(rng)
        psi = np.array([alpha, beta])
        rho = rho0 = np.outer(psi, psi.conj())
        u = collision_unitary(math.pi / (2 * n))
        channel = _collision_channel(math.pi / (2 * n))
        for j, unit in enumerate(np.eye(4, dtype=complex)):
            assert np.array_equal(channel[:, j], kron_rotation_step(unit.reshape(2, 2), u).ravel())
        for _ in range(n):
            rho = kron_rotation_step(rho, u)
        power = (np.linalg.matrix_power(channel, n) @ rho0.ravel()).reshape(2, 2)
        assert np.max(np.abs(power - rho)) < 1e-13


def test_single_collision_is_the_one_mode_collective_reference():
    # one ancilla in (|0>+|1>)/sqrt(2) is the collective mode of N = 1: the
    # single collision is that mode's run, from the input divided by its
    # norm, bit for bit, and the channel at Jt = pi/4 on vec(rho) to rounding
    rng = np.random.default_rng(420)
    channel = _collision_channel(math.pi / 4)
    for _ in range(200):
        alpha, beta = rand_amplitude_pair(rng)
        psi = np.array([alpha, beta], dtype=complex)
        psi = psi / np.linalg.norm(psi)
        simulated, _ = single_ancilla_rotation(alpha, beta)
        reference = protocols.collective_mode_reference(1, psi[0], psi[1], math.pi / 4)
        assert simulated.matrix.tobytes() == reference.matrix.tobytes()
        expected = (channel @ np.outer(psi, psi.conj()).ravel()).reshape(2, 2)
        assert np.max(np.abs(simulated.matrix - expected)) <= 1e-15


def test_rotation_params_validation():
    with pytest.raises(ValueError, match="normalized"):
        sequential_rotation(0.9, 0.9, 4)
    with pytest.raises(ValueError, match="normalized"):
        sequential_rotation(math.nan, 0.0, 4)
    with pytest.raises(ValueError, match="n_ancillas"):
        sequential_rotation(1.0, 0.0, 0)
    with pytest.raises(ValueError, match=r"n_ancillas must be in \[1,1048576\], got 1048577"):
        sequential_rotation(1.0, 0.0, MAX_ANCILLAS + 1)
    # refused by name, not by matrix_power's "exponent must be an integer";
    # True is not read as N = 1
    for bad in (4.5, True, 4.0):
        with pytest.raises(TypeError, match=f"n_ancillas must be an integer, got {bad!r}"):
            sequential_rotation(0.8, 0.6, bad)
    with pytest.raises(TypeError, match="n_ancillas must be an integer, got 2.5"):
        table1_summary(2.5)
    assert sequential_rotation(0.8, 0.6, np.int64(4)) == sequential_rotation(0.8, 0.6, 4)
    # numpy's integers are counts for every protocol; a bool is not
    assert (coherent_field_rotation(1.0, 0.0, 2.0, cutoff=np.int64(60))
            == coherent_field_rotation(1.0, 0.0, 2.0, cutoff=60))
    with pytest.raises(ValueError, match="bosonic cutoff must be an integer >= 1, got True"):
        coherent_field_rotation(1.0, 0.0, 0.0, cutoff=True)
    with pytest.raises(ValueError, match="n_modes must be >= 1, got 0"):
        simultaneous_coupling_check(0)
    for bad in (True, 2.0, 2.5):
        with pytest.raises(TypeError, match=f"n_modes must be an integer, got {bad!r}"):
            simultaneous_coupling_check(bad)
    assert simultaneous_coupling_check(np.int64(2)) == simultaneous_coupling_check(2)


# ---------------------------------------------------------------------------
# simultaneous coupling
# ---------------------------------------------------------------------------

def test_simultaneous_single_mode_is_definitionally_identical():
    res = simultaneous_coupling_check(1)
    assert res["trace_distance"] < 1e-12
    # one mode: the protocol IS the single-ancilla collision
    assert abs(res["fidelity_simultaneous"]
               - res["fidelity_one_fermionic_ancilla"]) < 1e-12


@pytest.mark.parametrize("n_modes", [2, 3, 4])
def test_simultaneous_matches_collective_mode(n_modes):
    res = simultaneous_coupling_check(n_modes)
    assert res["trace_distance"] < 1e-10
    assert abs(res["overlap"] - 1.0) < 1e-10
    assert abs(res["fidelity_gain"]) < 1e-10


def test_simultaneous_with_superposed_target():
    res = simultaneous_coupling_check(3, 0.6, 0.8)
    assert res["trace_distance"] < 1e-10
    assert abs(res["fidelity_gain"]) < 1e-10


def _collective_doublet_oracle(n_modes, alpha, beta, t):
    """Reduced target of the collective-mode reference, doublet by doublet:
    |g, m> and |e, m - 1> turn by the angle sqrt(m (N + 1 - m)) t, from the
    amplitudes (alpha, beta) sqrt(binom.pmf(m; N, 1/2)); |g, 0> and |e, N>
    stay."""
    chi = np.sqrt(stats.binom.pmf(np.arange(n_modes + 1), n_modes, 0.5))
    g, e = alpha * chi, beta * chi
    m = np.arange(1, n_modes + 1)
    angle = np.sqrt(m * (n_modes + 1 - m)) * t
    c, s = np.cos(angle), np.sin(angle)
    x = np.stack([g, e])
    x[0, 1:], x[1, :-1] = c * g[1:] - s * e[:-1], s * g[1:] + c * e[:-1]
    return x @ x.conj().T


@pytest.mark.parametrize("n_modes", [1030, 4096, 2 ** 20])
def test_collective_reference_at_large_n_matches_doublet_oracle(n_modes):
    # C(N, m) overflows a float from N = 1030: the amplitudes come from the
    # ratios of successive ones, and keep their relative accuracy at N = 2^20,
    # where log m! alone is about 1.4e7 and its rounding about 2e-9
    alpha, beta = rand_amplitude_pair(np.random.default_rng(n_modes))
    for t in (math.pi / (4.0 * math.sqrt(n_modes)), 0.7):
        reference = protocols.collective_mode_reference(n_modes, alpha, beta, t)
        oracle = _collective_doublet_oracle(n_modes, alpha, beta, t)
        assert np.max(np.abs(reference.matrix - oracle)) < 1e-12


@pytest.mark.parametrize("args, error, message", [
    ((0, 1.0, 0.0, 0.1), ValueError, "n_modes must be >= 1, got 0"),
    ((-2, 1.0, 0.0, 0.1), ValueError, "n_modes must be >= 1, got -2"),
    ((1.5, 1.0, 0.0, 0.1), TypeError, "n_modes must be an integer, got 1.5"),
    ((2.0, 1.0, 0.0, 0.1), TypeError, "n_modes must be an integer, got 2.0"),
    ((True, 1.0, 0.0, 0.1), TypeError, "n_modes must be an integer, got True"),
    ((3, 1.0, 1.0, 0.1), ValueError, "must be normalized"),
    ((3, math.nan, 0.0, 0.1), ValueError, "must be normalized"),
    ((3, 1.0, 0.0, math.nan), ValueError, "evolution time nan is not finite"),
    ((3, 1.0, 0.0, -math.inf), ValueError, "evolution time -inf is not finite"),
], ids=["zero", "negative", "fraction", "float", "bool", "unnormalized", "nan amplitude",
        "nan duration", "infinite duration"])
def test_collective_reference_refuses_by_name(args, error, message):
    # refused before any array is built; a closed form without these checks
    # would return a state for N = 0
    with pytest.raises(error, match=message):
        protocols.collective_mode_reference(*args)


def _hand_built_ladder(b):
    """Target (x) a ladder of len(b) + 1 levels and its coupling, triplet by
    triplet: i b_n at (|e, n - 1>, |g, n>) and the adjoint."""
    levels = len(b) + 1
    if levels == 1:
        layout = compose_layout([("target", TwoLevel)])
        return layout, LinearOp(layout, [], [], [])
    layout = compose_layout([("target", TwoLevel), ("ladder", BosonicMode(levels - 1))])
    ground = np.arange(1, levels)
    excited = levels + ground - 1
    values = 1j * np.asarray(b, dtype=float)
    return layout, LinearOp(layout, np.concatenate([excited, ground]),
                            np.concatenate([ground, excited]),
                            np.concatenate([values, values.conj()]))


def test_ladder_target_matches_evolve_on_hand_built_ladders():
    rng = np.random.default_rng(10)
    for levels in list(range(1, 41)) + list(rng.integers(1, 41, 20)):
        # real couplings of either sign, about a tenth of them zero
        b = rng.uniform(-3.0, 3.0, levels - 1) * (rng.random(levels - 1) < 0.9)
        c = rand_pure_vector(rng, levels)
        alpha, beta = rand_pure_vector(rng, 2)
        layout, h = _hand_built_ladder(b)
        psi = PureState(layout, np.kron([alpha, beta], c))
        for t in (0.0, 0.37, -1.3, 4.1):
            oracle = reduced_density(evolve(psi, h, t), ["target"]).matrix
            closed = protocols._ladder_target(b, c, np.array([alpha, beta]), t).matrix
            assert np.max(np.abs(closed - oracle)) < 1e-14


# ---------------------------------------------------------------------------
# massive fermions: pair mixing protocol
# ---------------------------------------------------------------------------

def test_pair_protocol_half_turn_gives_half_concurrence():
    targets, c = massive_fermion_protocol((math.pi / 2,))
    assert abs(c - 0.5) < 1e-12
    # reduced state is the gamma = 1/2 two-target state
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = 0.25
    assert np.allclose(targets.matrix, expected, atol=1e-12)


def test_pair_protocol_zero_angle_leaves_no_entanglement():
    _, c = massive_fermion_protocol((0.0,))
    assert c <= 1e-12


def test_pair_protocol_two_pairs_uses_one():
    _, c = massive_fermion_protocol((0.0, math.pi / 2))
    assert abs(c - 0.5) < 1e-12
    _, c2 = massive_fermion_protocol((math.pi / 2, 0.0))
    assert abs(c2 - 0.5) < 1e-12


def test_pair_protocol_all_zero_angles_is_separable():
    for n in (1, 2, 3):
        _, c = massive_fermion_protocol((0.0,) * n)
        assert c <= 1e-12


def test_left_and_right_operations_commute():
    layout, psi = pair_protocol_state(1)
    u_left = dense_mixing(layout, "tgt_l", "fly_l", "anc1_l", 0.9)
    u_right = dense_mixing(layout, "tgt_r", "fly_r", "anc1_r", 0.9)
    assert np.max(np.abs(u_left @ (u_right @ psi) - u_right @ (u_left @ psi))) < 1e-12


@given(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=3).map(tuple))
@settings(max_examples=40, deadline=None)
def test_pair_mixing_matches_dense_unitaries(thetas):
    layout, psi = pair_protocol_state(len(thetas))
    for j, th in enumerate(thetas, start=1):
        psi = dense_mixing(layout, "tgt_l", "fly_l", f"anc{j}_l", th) @ psi
        psi = dense_mixing(layout, "tgt_r", "fly_r", f"anc{j}_r", th) @ psi
    # the amplitudes, not only the reduced matrices, which are the same for
    # theta and -theta: this pins the direction of each rotation
    assert np.max(np.abs(_pair_mixing([thetas])[0] - psi)) < 1e-13
    x = psi.reshape(4, -1)
    oracle = x @ x.conj().T
    assert np.max(np.abs(_reduced_targets([thetas])[0] - oracle)) < 1e-13


def test_fermion_params_validation():
    for bad in (-0.1, math.pi + 0.1, 4.0, math.nan):
        with pytest.raises(ValueError, match=r"mixing angle must lie in \[0, pi\]"):
            massive_fermion_protocol((0.5, bad))
    with pytest.raises(ValueError, match="n_pairs must be >= 1, got 0"):
        massive_fermion_protocol(())


def test_fermion_angles_refuse_a_string():
    # "12" would run as the two angles (1.0, 2.0)
    for bad in ("12", "1"):
        with pytest.raises(TypeError, match=f"angles must be a sequence of numbers, "
                                            f"not the string {bad!r}"):
            massive_fermion_protocol(bad)


# ---------------------------------------------------------------------------
# angle optimization
# ---------------------------------------------------------------------------

def test_optimize_single_pair_finds_half_turn():
    best_t, best_c, grid = optimize_angles(1, 32, 10)
    assert abs(best_t[0] - math.pi / 2) < 1e-3
    assert abs(best_c - 0.5) < 1e-8
    assert len(grid) == 32 and len(grid[0]) == 2


def test_optimize_two_pairs_caps_at_half():
    best_t, best_c, grid = optimize_angles(2, 24, 3)
    assert best_c <= 0.5 + 1e-9
    values = np.array([row[-1] for row in grid])
    assert values.max() <= 0.5 + 1e-9
    # optimum sits on one of the single-pair edges
    d1 = math.hypot(best_t[0] - 0.0, best_t[1] - math.pi / 2)
    d2 = math.hypot(best_t[0] - math.pi / 2, best_t[1] - 0.0)
    assert min(d1, d2) < 0.2


def test_optimize_zero_angles_row_is_zero():
    _, _, grid = optimize_angles(2, 8, 0)
    first = grid[0]
    assert first[0] == 0.0 and first[1] == 0.0
    assert abs(first[2]) < 1e-12


def test_optimize_surface_is_symmetric():
    _, _, grid = optimize_angles(2, 12, 0)
    values = {(round(r[0], 12), round(r[1], 12)): r[2] for r in grid}
    for (t1, t2), v in values.items():
        assert abs(values[(t2, t1)] - v) < 1e-10


@pytest.mark.parametrize("chunk_bytes", [protocols._CHUNK_BYTES, 7 * 16 * 16 * 4 ** 3])
@pytest.mark.parametrize("sizes", [(1, 64, 12), (2, 16, 2), (3, 8, 1)])
def test_chunked_optimizer_equals_the_pointwise_scan(sizes, chunk_bytes, monkeypatch):
    # the second budget holds 7 points at 3 pairs, so chunks end mid-scan
    monkeypatch.setattr(protocols, "_CHUNK_BYTES", chunk_bytes)
    best_t, best_c, grid = optimize_angles(*sizes)
    ref_t, ref_c, ref_grid = pointwise_optimize_angles(*sizes)
    assert best_t == ref_t and best_c == ref_c
    assert grid == ref_grid


def _plateau_targets(angles):
    """Stand-in for ``protocols._reduced_targets`` whose concurrence is a few
    wide plateaus, g = min(floor(4 prod_j sin^2 theta_j), 3) / 8, so that
    whole neighbourhoods tie exactly, within a round and across rounds."""
    weights = np.prod(np.sin(np.asarray(angles, dtype=float)) ** 2, axis=1)
    return np.stack([target_pair_density(min(math.floor(4 * w), 3) / 8).matrix
                     for w in weights])


@pytest.mark.parametrize("sizes", [(1, 8, 4), (2, 8, 3), (3, 8, 2), (2, 9, 5)])
def test_optimizer_breaks_exact_ties_as_the_pointwise_scan(sizes, monkeypatch):
    # on the smooth surface the maxima tie only by symmetry; on plateaus a
    # refinement scan meets many points that tie with the incumbent, where
    # keeping the incumbent, or the last maximum, picks another point than
    # the first maximum
    monkeypatch.setattr(protocols, "_reduced_targets", _plateau_targets)
    best_t, best_c, grid = optimize_angles(*sizes)
    ref_t, ref_c, ref_grid = pointwise_optimize_angles(*sizes)
    assert best_t == ref_t and best_c == ref_c
    assert grid == ref_grid


def test_optimize_parameter_validation():
    with pytest.raises(ValueError, match="grid_points"):
        optimize_angles(1, 4, 1)
    with pytest.raises(ValueError, match="refine_rounds"):
        optimize_angles(1, 8, -1)
    with pytest.raises(ValueError, match="n_pairs"):
        optimize_angles(0, 8, 1)
    # refused by name, not by a TypeError deep inside; True is not read as 1
    for args, name, bad in (((True, 8, 0), "n_pairs", True), ((2.5, 8, 0), "n_pairs", 2.5),
                            ((1, 8.5, 0), "grid_points", 8.5),
                            ((1, 8, 1.5), "refine_rounds", 1.5)):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got {bad!r}"):
            optimize_angles(*args)
    assert optimize_angles(np.int64(1), np.int64(8), np.int64(1)) == optimize_angles(1, 8, 1)


# ---------------------------------------------------------------------------
# coherent field rotation
# ---------------------------------------------------------------------------

def test_coherent_rotation_vacuum_does_nothing():
    alpha, beta = 0.8, 0.6
    res = coherent_field_rotation(alpha, beta, 0.0)
    ideal = rotated_target_state(alpha, beta)
    initial = np.array([alpha, beta])
    expected = abs(np.vdot(ideal, initial)) ** 2
    assert abs(res["fidelity"] - expected) < 1e-12


def test_coherent_rotation_improves_with_amplitude():
    rng = np.random.default_rng(500)
    for _ in range(10):
        alpha, beta = rand_amplitude_pair(rng)
        f4 = coherent_field_rotation(alpha, beta, 4.0)["fidelity"]
        f8 = coherent_field_rotation(alpha, beta, 8.0)["fidelity"]
        assert 1 - f8 < 1 - f4
        assert f8 > 0.95


def test_coherent_rotation_rejects_small_cutoff():
    with pytest.raises(ValueError, match="truncation weight"):
        coherent_field_rotation(1.0, 0.0, 4.0, cutoff=3)
    # the ideal is the half-turn of a real positive field; a negative or
    # complex eta turns the target elsewhere (fidelity 0.00085 at -3, 0.613
    # at 3j), so it is refused by name, with or without a cutoff
    for eta in (-3, 3j, -1e-300, complex(8, 1e-300)):
        for cutoff in (None, 200):
            with pytest.raises(ValueError, match=r"eta must be a real number >= 0, got "):
                coherent_field_rotation(0.8, 0.6, eta, cutoff)
    assert (coherent_field_rotation(0.8, 0.6, complex(2.0))
            == coherent_field_rotation(0.8, 0.6, 2.0))


def test_coherent_rotation_refuses_an_eta_whose_pulse_overflows():
    # pi/(4 eta) is infinite below about 4.4e-309, and sqrt(cutoff) pi/(4 eta),
    # the largest phase of the run, a little above: refused by eta, not by the
    # evolution time or the NaN they would give
    for eta, cutoff in ((1e-320, None), (5e-324, 200), (4e-309, None), (5e-309, None),
                        (1e-307, 131071)):
        with pytest.raises(ValueError, match=rf"eta {eta!r} is too small: the largest phase "
                                             r"sqrt\(cutoff\) pi/\(4 eta\) overflows"):
            coherent_field_rotation(1.0, 0.0, eta, cutoff)
    assert coherent_field_rotation(1.0, 0.0, 1e-307)["truncation_weight"] == 0.0


@pytest.mark.parametrize("eta", [0.0, 0.5, 2.0, 8.0, 20.0])
def test_coherent_rotation_matches_evolve(eta, monkeypatch):
    # the field's closed-form ladder against the Lanczos step on the
    # triplets of jc_hamiltonian, reduced to the target by reduced_density
    rng = np.random.default_rng(int(eta * 10))
    reduced = []
    ladder_target = protocols._ladder_target

    def recording(*args):
        rho = ladder_target(*args)
        reduced.append(rho.matrix)
        return rho

    monkeypatch.setattr(protocols, "_ladder_target", recording)
    for _ in range(3):
        alpha, beta = rand_amplitude_pair(rng)
        coherent_field_rotation(alpha, beta, eta)
        mode, _ = coherent_mode_state(default_coherent_cutoff(eta), eta, label="field")
        target = PureState(compose_layout([("target", TwoLevel)]),
                           np.array([alpha, beta]) / np.linalg.norm([alpha, beta]))
        psi = tensor(target, mode)
        h = jc_hamiltonian(psi.layout, "target", ("field",))
        duration = 0.0 if eta == 0 else math.pi / (4.0 * eta)
        oracle = reduced_density(evolve(psi, h, duration), ["target"]).matrix
        assert np.max(np.abs(reduced.pop() - oracle)) < 1e-12


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

def test_table_for_single_ancilla():
    rows, scalars = table1_summary(1)
    by_name = {name: c for name, c, _ in rows}
    assert abs(by_name["massless bosons"] - 1.0) < 1e-10
    assert abs(by_name["massive bosons"] - 0.5) < 1e-10
    assert by_name["massless fermions"] is None
    assert scalars["massless_fermions_asymptotic_concurrence"] == 1.0
    assert "massless_fermions_sequential_fidelity" in scalars
    assert abs(by_name["massive fermions"] - 0.5) < 1e-9
    assert [reps for _, _, reps in rows] == ["inf", "inf", "inf", "1"]


def test_table_massive_boson_formula():
    rows, scalars = table1_summary(50)
    by_name = {name: c for name, c, _ in rows}
    assert abs(by_name["massive bosons"] - 0.99) < 1e-10
    assert scalars["massive_bosons_gamma"] == 0.99


def test_table_massive_fermion_row_independent_of_n():
    c1 = {name: c for name, c, _ in table1_summary(1)[0]}["massive fermions"]
    c7 = {name: c for name, c, _ in table1_summary(7)[0]}["massive fermions"]
    assert c1 == c7
    assert abs(c1 - 0.5) < 1e-9


def test_experiment_result_requires_finite_scalars():
    with pytest.raises(ValueError, match="scalar 'bad' is not finite"):
        protocols._finite({"ok": 1.0, "bad": float("nan")})
    scalars = {"fidelity": 0.5}
    assert protocols._finite(scalars) is scalars


def test_coherent_rotation_allocates_no_dense_hamiltonian():
    # d = 4072 at eta = 41: one complex d x d array alone would take 265 MB
    coherent_field_rotation(0.8, 0.6, 2.0)  # imports done outside the trace
    tracemalloc.start()
    try:
        coherent_field_rotation(0.8, 0.6, 41.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the automatic cutoff the run above used
    assert default_coherent_cutoff(41.0) == 2029
    assert peak < 16 * 2 ** 20
