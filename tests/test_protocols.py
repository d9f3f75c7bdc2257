import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pair_protocol_state, rand_amplitude_pair
from modent import (
    FermionProtocolParams,
    RotationProtocolParams,
    coherent_field_rotation,
    controlled_mixing_unitary,
    massive_fermion_protocol,
    massless_absorption,
    optimize_angles,
    rotated_target_state,
    sequential_rotation,
    simultaneous_coupling_check,
    single_ancilla_rotation,
    table1_summary,
)
from modent.protocols import _pair_mixing, rotation_step

SQ2 = math.sqrt(2)


# ---------------------------------------------------------------------------
# massless bosons: absorption
# ---------------------------------------------------------------------------

def test_absorption_produces_symmetric_bell_pair():
    targets, result = massless_absorption()
    bell = np.array([0, 1, 1, 0]) / SQ2  # (|ge> + |eg>)/sqrt(2) in {gg, ge, eg, ee}
    assert np.allclose(targets.matrix, np.outer(bell, bell), atol=1e-12)
    assert abs(result.scalars["concurrence"] - 1.0) < 1e-10
    assert result.scalars["flying_occupation"] < 1e-12
    assert abs(result.scalars["transfer_overlap"] - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# single ancilla collision
# ---------------------------------------------------------------------------

def test_single_collision_closed_form_ground_input():
    _, analytic, fid = single_ancilla_rotation(1.0, 0.0)
    assert np.allclose(analytic.matrix, np.array([[3, SQ2], [SQ2, 1]]) / 4, atol=1e-14)
    assert abs(fid - (2 + SQ2) / 4) < 1e-12


def test_single_collision_closed_form_excited_input():
    _, analytic, _ = single_ancilla_rotation(0.0, 1.0)
    assert np.allclose(analytic.matrix, np.array([[1, -SQ2], [-SQ2, 3]]) / 4, atol=1e-14)


def test_single_collision_simulation_matches_closed_form():
    rng = np.random.default_rng(100)
    for _ in range(50):
        alpha, beta = rand_amplitude_pair(rng)
        simulated, analytic, _ = single_ancilla_rotation(alpha, beta)
        assert np.max(np.abs(simulated.matrix - analytic.matrix)) < 1e-10


def test_single_collision_rejects_unnormalized_input():
    with pytest.raises(ValueError, match="normalized"):
        single_ancilla_rotation(1.0, 1.0)


# ---------------------------------------------------------------------------
# sequential rotation
# ---------------------------------------------------------------------------

def test_sequential_quarter_pulse_reproduces_single_collision():
    # explicit per-step duration pi/4: one step is exactly the closed-form channel
    res = sequential_rotation(RotationProtocolParams(1.0, 0.0, 1, per_step_duration=math.pi / 4))
    assert abs(res.scalars["fidelity"] - (2 + SQ2) / 4) < 1e-12


def test_sequential_default_single_step_from_ground():
    # from |g> the full half-turn pulse transfers the ancilla particle exactly
    res = sequential_rotation(RotationProtocolParams(1.0, 0.0, 1))
    assert abs(res.scalars["fidelity"] - 1.0) < 1e-12


def test_sequential_error_halves_when_ancilla_count_doubles():
    rng = np.random.default_rng(200)
    for _ in range(10):
        alpha, beta = rand_amplitude_pair(rng)
        e16 = sequential_rotation(RotationProtocolParams(alpha, beta, 16)).scalars["infidelity"]
        e32 = sequential_rotation(RotationProtocolParams(alpha, beta, 32)).scalars["infidelity"]
        assert abs(e16 / (2 * e32) - 1) < 0.1


def test_sequential_many_ancillas_high_fidelity():
    rng = np.random.default_rng(300)
    for _ in range(20):
        alpha, beta = rand_amplitude_pair(rng)
        res = sequential_rotation(RotationProtocolParams(alpha, beta, 64))
        assert res.scalars["fidelity"] > 0.99


def test_rotation_step_preserves_trace_and_positivity():
    rng = np.random.default_rng(400)
    alpha, beta = rand_amplitude_pair(rng)
    psi = np.array([alpha, beta])
    rho = np.outer(psi, psi.conj())
    n = 12
    for _ in range(n):
        rho = rotation_step(rho, math.pi / (2 * n))
        assert abs(np.trace(rho).real - 1) < 1e-10
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


def test_rotation_params_validation():
    with pytest.raises(ValueError, match="normalized"):
        RotationProtocolParams(0.9, 0.9, 4)
    with pytest.raises(ValueError, match="n_ancillas"):
        RotationProtocolParams(1.0, 0.0, 0)
    with pytest.raises(ValueError, match="positive"):
        RotationProtocolParams(1.0, 0.0, 2, per_step_duration=0.0)


# ---------------------------------------------------------------------------
# simultaneous coupling
# ---------------------------------------------------------------------------

def test_simultaneous_single_mode_is_definitionally_identical():
    res = simultaneous_coupling_check(1)
    assert res.scalars["trace_distance"] < 1e-12
    # one mode: the protocol IS the single-ancilla collision
    assert abs(res.scalars["fidelity_simultaneous"]
               - res.scalars["fidelity_one_fermionic_ancilla"]) < 1e-12


@pytest.mark.parametrize("n_modes", [2, 3, 4])
def test_simultaneous_matches_collective_mode(n_modes):
    res = simultaneous_coupling_check(n_modes)
    assert res.scalars["trace_distance"] < 1e-10
    assert abs(res.scalars["overlap"] - 1.0) < 1e-10
    assert abs(res.scalars["fidelity_gain"]) < 1e-10


def test_simultaneous_with_superposed_target():
    res = simultaneous_coupling_check(3, 0.6, 0.8)
    assert res.scalars["trace_distance"] < 1e-10
    assert abs(res.scalars["fidelity_gain"]) < 1e-10


# ---------------------------------------------------------------------------
# massive fermions: pair mixing protocol
# ---------------------------------------------------------------------------

def test_pair_protocol_half_turn_gives_half_concurrence():
    targets, c = massive_fermion_protocol(FermionProtocolParams(1, (math.pi / 2,)))
    assert abs(c - 0.5) < 1e-12
    # reduced state is the gamma = 1/2 two-target state
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = 0.25
    assert np.allclose(targets.matrix, expected, atol=1e-12)


def test_pair_protocol_zero_angle_leaves_no_entanglement():
    _, c = massive_fermion_protocol(FermionProtocolParams(1, (0.0,)))
    assert c <= 1e-12


def test_pair_protocol_two_pairs_uses_one():
    _, c = massive_fermion_protocol(FermionProtocolParams(2, (0.0, math.pi / 2)))
    assert abs(c - 0.5) < 1e-12
    _, c2 = massive_fermion_protocol(FermionProtocolParams(2, (math.pi / 2, 0.0)))
    assert abs(c2 - 0.5) < 1e-12


def test_pair_protocol_all_zero_angles_is_separable():
    for n in (1, 2, 3):
        _, c = massive_fermion_protocol(FermionProtocolParams(n, (0.0,) * n))
        assert c <= 1e-12


def test_left_and_right_operations_commute():
    layout, psi = pair_protocol_state(1)
    u_left = controlled_mixing_unitary(layout, "tgt_l", "fly_l", "anc1_l", 0.9).matrix
    u_right = controlled_mixing_unitary(layout, "tgt_r", "fly_r", "anc1_r", 0.9).matrix
    assert np.max(np.abs(u_left @ (u_right @ psi) - u_right @ (u_left @ psi))) < 1e-12


@given(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=3).map(tuple))
@settings(max_examples=40, deadline=None)
def test_pair_mixing_matches_dense_unitaries(thetas):
    layout, psi = pair_protocol_state(len(thetas))
    for j, th in enumerate(thetas, start=1):
        psi = controlled_mixing_unitary(layout, "tgt_l", "fly_l", f"anc{j}_l", th).matrix @ psi
        psi = controlled_mixing_unitary(layout, "tgt_r", "fly_r", f"anc{j}_r", th).matrix @ psi
    x = psi.reshape(4, -1)
    dense = x @ x.conj().T
    assert np.max(np.abs(_pair_mixing(len(thetas))(thetas) - dense)) < 1e-13


def test_fermion_params_validation():
    with pytest.raises(ValueError, match="angles"):
        FermionProtocolParams(2, (0.1,))
    with pytest.raises(ValueError):
        FermionProtocolParams(1, (4.0,))  # out of [0, pi]
    with pytest.raises(ValueError, match="n_pairs"):
        FermionProtocolParams(0, ())


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


def test_optimize_parameter_validation():
    with pytest.raises(ValueError, match="grid_points"):
        optimize_angles(1, 4, 1)
    with pytest.raises(ValueError, match="refine_rounds"):
        optimize_angles(1, 8, -1)
    with pytest.raises(ValueError, match="n_pairs"):
        optimize_angles(0, 8, 1)


# ---------------------------------------------------------------------------
# coherent field rotation
# ---------------------------------------------------------------------------

def test_coherent_rotation_vacuum_does_nothing():
    alpha, beta = 0.8, 0.6
    res = coherent_field_rotation(alpha, beta, 0.0)
    ideal = rotated_target_state(alpha, beta)
    initial = np.array([alpha, beta])
    expected = abs(np.vdot(ideal, initial)) ** 2
    assert abs(res.scalars["fidelity"] - expected) < 1e-12


def test_coherent_rotation_improves_with_amplitude():
    rng = np.random.default_rng(500)
    for _ in range(10):
        alpha, beta = rand_amplitude_pair(rng)
        f4 = coherent_field_rotation(alpha, beta, 4.0).scalars["fidelity"]
        f8 = coherent_field_rotation(alpha, beta, 8.0).scalars["fidelity"]
        assert 1 - f8 < 1 - f4
        assert f8 > 0.95


def test_coherent_rotation_rejects_small_cutoff():
    with pytest.raises(ValueError, match="truncation weight"):
        coherent_field_rotation(1.0, 0.0, 4.0, cutoff=3)


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

def test_table_for_single_ancilla():
    rows = table1_summary(1)
    by_name = {r.particle_type: r for r in rows}
    assert abs(by_name["massless bosons"].concurrence - 1.0) < 1e-10
    assert abs(by_name["massive bosons"].concurrence - 0.5) < 1e-10
    assert by_name["massless fermions"].concurrence is None
    assert by_name["massless fermions"].details["asymptotic_concurrence"] == 1.0
    assert "sequential_fidelity" in by_name["massless fermions"].details
    assert abs(by_name["massive fermions"].concurrence - 0.5) < 1e-9
    assert [r.repetitions for r in rows] == ["inf", "inf", "inf", "1"]


def test_table_massive_boson_formula():
    rows = table1_summary(50)
    by_name = {r.particle_type: r for r in rows}
    assert abs(by_name["massive bosons"].concurrence - 0.99) < 1e-10


def test_table_massive_fermion_row_independent_of_n():
    c1 = {r.particle_type: r for r in table1_summary(1)}["massive fermions"].concurrence
    c7 = {r.particle_type: r for r in table1_summary(7)}["massive fermions"].concurrence
    assert c1 == c7
    assert abs(c1 - 0.5) < 1e-9


def test_experiment_result_requires_finite_scalars():
    from modent import ExperimentResult
    with pytest.raises(ValueError, match="finite"):
        ExperimentResult("x", {}, {"bad": float("nan")})
