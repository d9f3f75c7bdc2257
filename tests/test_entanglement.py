import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_density_matrix, rand_pure_vector, rand_unitary
from modent import (
    BosonicMode,
    DensityOp,
    FermionicMode,
    chsh_violated,
    compose_layout,
    concurrence,
    correlation_tensor,
    fidelity,
    horodecki_m,
    state_overlap,
    target_pair_density,
    trace_distance,
)

BELL_SYM = np.array([0, 1, 1, 0]) / math.sqrt(2)  # (|ge> + |eg>)/sqrt(2)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_of_matching_pure_state():
    rng = np.random.default_rng(0)
    psi = rand_pure_vector(rng, 4)
    assert abs(fidelity(np.outer(psi, psi.conj()), psi) - 1) < 1e-14


def test_fidelity_of_maximally_mixed_qubit():
    rng = np.random.default_rng(1)
    psi = rand_pure_vector(rng, 2)
    assert abs(fidelity(np.eye(2) / 2, psi) - 0.5) < 1e-14


def test_fidelity_single_collision_value():
    rho = np.array([[3, math.sqrt(2)], [math.sqrt(2), 1]]) / 4
    plus = np.array([1, 1]) / math.sqrt(2)
    assert abs(fidelity(rho, plus) - (2 + math.sqrt(2)) / 4) < 1e-12


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        fidelity(np.eye(2) / 2, np.zeros(4))
    # an ideal state off unit norm is refused, not clamped into [0, 1]
    for rho, bad in ((np.eye(2) / 2, np.array([2.0, 0.0])),
                     (0.5 * np.ones((2, 2)), np.array([1.0, 1.0])),
                     (np.eye(2) / 2, np.zeros(2)),
                     (np.eye(2) / 2, np.array([np.nan, 0.0]))):
        with pytest.raises(ValueError, match="ideal state norm"):
            fidelity(rho, bad)


def test_fidelity_refuses_a_non_real_value():
    # rho is not validated: a non-Hermitian one gives <psi|rho|psi> = 0.5 + 0.5i
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    with pytest.raises(ValueError, match="fidelity came out non-real"):
        fidelity(np.array([[0.5, 1j], [0.0, 0.5]]), plus)


def test_nan_is_never_read_as_a_fidelity_or_two_qubit_state():
    # max(0, nan) used to clamp a NaN fidelity to 0
    with pytest.raises(ValueError, match="non-finite"):
        fidelity(np.full((2, 2), np.nan), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="Hermitian"):
        concurrence(np.full((4, 4), np.nan))
    # min(1, nan) is 1, and eigh reads one triangle only, so neither sees a NaN
    half = np.eye(2) / 2
    for bad in (np.full((2, 2), np.nan), np.array([[0.5, np.nan], [0.0, 0.5]]),
                np.array([[np.inf, 0.0], [0.0, 0.5]])):
        with pytest.raises(ValueError, match="non-finite"):
            state_overlap(half, bad)
        with pytest.raises(ValueError, match="non-finite"):
            state_overlap(bad, half)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_fidelity_bounds_and_purity(seed):
    rng = np.random.default_rng(seed)
    psi = rand_pure_vector(rng, 4)
    phi = rand_pure_vector(rng, 4)
    f = fidelity(rand_density_matrix(rng, 4), psi)
    assert 0.0 <= f <= 1.0
    fp = fidelity(np.outer(psi, psi.conj()), phi)
    assert abs(fp - abs(np.vdot(phi, psi)) ** 2) < 1e-12


# ---------------------------------------------------------------------------
# concurrence
# ---------------------------------------------------------------------------

def test_concurrence_product_state():
    psi = np.array([0, 1, 0, 0], dtype=complex)  # |ge>
    assert concurrence(np.outer(psi, psi)) == 0.0


def test_concurrence_bell_state():
    assert abs(concurrence(np.outer(BELL_SYM, BELL_SYM)) - 1) < 1e-12


def test_concurrence_of_target_pair_density_sweep():
    for g in np.arange(0.0, 1.0001, 0.1):
        assert abs(concurrence(target_pair_density(g)) - g) < 1e-10


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_concurrence_local_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    rho = rand_density_matrix(rng, 4, rank=int(rng.integers(1, 5)))
    base = concurrence(rho)
    u = np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2))
    assert abs(concurrence(u @ rho @ u.conj().T) - base) < 1e-10


# ---------------------------------------------------------------------------
# target-pair density
# ---------------------------------------------------------------------------

def test_target_pair_density_matrix_form():
    m = target_pair_density(0.5).matrix
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = 0.25
    assert np.array_equal(m, expected)


def test_target_pair_density_limits():
    bell = target_pair_density(1.0).matrix
    assert np.allclose(bell, np.outer(BELL_SYM, BELL_SYM), atol=1e-15)
    mixture = target_pair_density(0.0).matrix
    assert np.allclose(mixture, np.diag([0, 0.5, 0.5, 0]), atol=1e-15)


def test_target_pair_density_range_check():
    with pytest.raises(ValueError, match="gamma"):
        target_pair_density(1.5)
    with pytest.raises(ValueError, match="gamma"):
        target_pair_density(-0.1)


# ---------------------------------------------------------------------------
# correlation tensor and the CHSH criterion
# ---------------------------------------------------------------------------

def test_correlation_tensor_of_target_pair_density():
    for g in (0.0, 0.3, 1.0):
        t = correlation_tensor(target_pair_density(g))
        assert np.allclose(t, np.diag([g, g, -1.0]), atol=1e-12)


def test_correlation_tensor_factorizes_for_products():
    rng = np.random.default_rng(9)
    from modent.entanglement import PAULIS
    for _ in range(10):
        ra = rand_density_matrix(rng, 2)
        rb = rand_density_matrix(rng, 2)
        t = correlation_tensor(np.kron(ra, rb))
        sa = np.array([np.trace(ra @ p).real for p in PAULIS])
        sb = np.array([np.trace(rb @ p).real for p in PAULIS])
        assert np.allclose(t, np.outer(sa, sb), atol=1e-12)
        assert np.linalg.matrix_rank(t, tol=1e-9) <= 1


def test_correlation_tensor_of_maximally_mixed():
    t = correlation_tensor(np.eye(4) / 4)
    assert np.allclose(t, 0.0, atol=1e-14)


def test_horodecki_identity_on_target_pair():
    for g in np.arange(0.0, 1.0001, 0.1):
        rho = target_pair_density(g)
        assert abs(horodecki_m(rho) - (1 + g * g)) < 1e-10
        assert chsh_violated(rho) == (g > 0)


def test_horodecki_bell_and_mixed():
    assert abs(horodecki_m(np.outer(BELL_SYM, BELL_SYM)) - 2) < 1e-12
    assert abs(horodecki_m(np.eye(4) / 4)) < 1e-14
    assert not chsh_violated(np.eye(4) / 4)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_horodecki_local_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    rho = rand_density_matrix(rng, 4, rank=int(rng.integers(1, 5)))
    base = horodecki_m(rho)
    u = np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2))
    assert abs(horodecki_m(u @ rho @ u.conj().T) - base) < 1e-9


# ---------------------------------------------------------------------------
# validation and metrics
# ---------------------------------------------------------------------------

def test_two_qubit_density_validation():
    with pytest.raises(ValueError, match="does not match layout dimension 4"):
        concurrence(np.eye(2) / 2)
    with pytest.raises(ValueError, match="Hermitian"):
        concurrence(np.triu(np.ones((4, 4))) / 4)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        concurrence(np.diag([0.75, 0.75, -0.25, -0.25]))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_two_qubit_measures_take_an_array_or_a_density_op(seed):
    rng = np.random.default_rng(seed)
    m = rand_density_matrix(rng, 4, rank=int(rng.integers(1, 5)))
    fermion_pair = compose_layout([("a", FermionicMode), ("b", FermionicMode)])
    rho = DensityOp(fermion_pair, m)
    assert concurrence(m) == concurrence(rho)
    assert horodecki_m(m) == horodecki_m(rho)
    assert np.array_equal(correlation_tensor(m), correlation_tensor(rho))

    ququart = DensityOp(compose_layout([("q", BosonicMode(3))]), m)
    for measure in (concurrence, horodecki_m, correlation_tensor):
        with pytest.raises(ValueError, match="two two-level subsystems"):
            measure(ququart)

    # the Hermiticity tolerance is DensityOp's 1e-12
    skew = np.zeros((4, 4), dtype=complex)
    skew[1, 2] = 1j
    concurrence(m + 1e-13 * skew)
    with pytest.raises(ValueError, match="Hermitian"):
        concurrence(m + 1e-11 * skew)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_concurrence_of_a_stack_equals_each_member_alone(seed):
    rng = np.random.default_rng(seed)
    stack = np.array([rand_density_matrix(rng, 4, rank=int(rng.integers(1, 5)))
                      for _ in range(int(rng.integers(1, 9)))])
    assert concurrence(stack).tolist() == [concurrence(m) for m in stack]


@pytest.mark.parametrize("bad, match", [
    (np.triu(np.ones((4, 4))) / 4, "Hermitian"),
    (np.eye(4) / 2, "trace"),
    (np.diag([0.75, 0.75, -0.25, -0.25]), "negative eigenvalue"),
    (np.full((4, 4), np.nan), "Hermitian"),
])
def test_stack_with_one_bad_member_fails_like_density_op(bad, match):
    with pytest.raises(ValueError, match=match):
        DensityOp(compose_layout([("a", FermionicMode), ("b", FermionicMode)]), bad)
    good = target_pair_density(0.5).matrix
    for position in range(3):
        stack = np.array([good, good, good])
        stack[position] = bad
        with pytest.raises(ValueError, match=match):
            concurrence(stack)


def test_concurrence_rejects_other_shapes():
    for shape in ((4,), (2, 2), (3, 3), (2, 3, 4, 4)):
        with pytest.raises(ValueError, match="does not match layout dimension 4"):
            concurrence(np.zeros(shape))


def test_correlation_tensor_validation():
    # the input is a two-qubit density; a 3x3 array, a NaN matrix and a
    # non-positive 4x4 matrix are refused before any correlation is taken
    with pytest.raises(ValueError, match="does not match layout dimension 4"):
        correlation_tensor(np.eye(3) / 3)
    with pytest.raises(ValueError, match="Hermitian"):
        correlation_tensor(np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        correlation_tensor(np.diag([0.75, 0.75, -0.25, -0.25]))
    t = correlation_tensor(target_pair_density(1.0))
    assert t.dtype == float and t.shape == (3, 3)


def test_trace_distance():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert abs(trace_distance(a, b) - 1.0) < 1e-14
    assert trace_distance(a, a) == 0.0
    with pytest.raises(ValueError, match="Hermitian"):
        trace_distance(np.full((2, 2), np.nan), a)
    # numpy would broadcast these against the 2x2 operator
    for other in (np.array([0.5, 0.5]), np.array([[0.5]])):
        with pytest.raises(ValueError, match="matching dimensions"):
            trace_distance(np.eye(2) / 2, other)
    # not matrices, or not square: refused before numpy's own errors
    for bad in (np.array([0.5, 0.5]), np.ones((2, 3)) / 6):
        with pytest.raises(ValueError, match="square matrices"):
            trace_distance(bad, np.zeros_like(bad))


def test_state_overlap():
    from modent import state_overlap
    rng = np.random.default_rng(13)
    rho = rand_density_matrix(rng, 2)
    assert abs(state_overlap(rho, rho) - 1.0) < 1e-12
    assert state_overlap(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) < 1e-14
    psi = rand_pure_vector(rng, 2)
    # against a pure state it reduces to <psi|rho|psi>
    pure = np.outer(psi, psi.conj())
    assert abs(state_overlap(rho, pure) - fidelity(rho, psi)) < 1e-12
    # a matrix that is no density matrix is refused, not clamped into [0, 1]
    for bad, match in ((np.eye(2), "trace"), (np.diag([3.0, -1.0]), "trace"),
                       (np.diag([1.5, -0.5]), "negative eigenvalue"),
                       (np.array([[0.5, 0.9], [0.1, 0.5]]), "Hermitian")):
        with pytest.raises(ValueError, match=match):
            state_overlap(np.eye(2) / 2, bad)
        with pytest.raises(ValueError, match=match):
            state_overlap(bad, np.eye(2) / 2)


def test_state_overlap_refuses_other_shapes():
    # not matrices, or not square: refused by name, before numpy's own errors
    for bad in (np.array([0.5, 0.5]), np.ones((2, 3)) / 6):
        with pytest.raises(ValueError, match="state overlap requires square matrices"):
            state_overlap(bad, np.zeros_like(bad))
    for other in (np.array([0.5, 0.5]), np.array([[0.5]]), np.eye(4) / 4):
        with pytest.raises(ValueError, match="state overlap requires matching dimensions"):
            state_overlap(np.eye(2) / 2, other)
