import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dense,
    dense_embed,
    dense_partial_trace,
    embed_local,
    linear_op,
    rand_pure_state,
)
from modent import (
    LinearOp,
    BosonicMode,
    DensityOp,
    FermionicMode,
    PureState,
    TwoLevel,
    basis_state,
    coherent_mode_state,
    compose_layout,
    default_coherent_cutoff,
    reduced_density,
    superpose,
    tensor,
)


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

def test_compose_layout_dimensions():
    assert compose_layout([("T", TwoLevel)]).dim == 2
    assert compose_layout([("fly", FermionicMode), ("T", TwoLevel)]).dim == 4
    assert compose_layout([("m", BosonicMode(3)), ("T", TwoLevel)]).dim == 8


def test_compose_layout_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        compose_layout([("a", TwoLevel), ("a", FermionicMode)])


def test_compose_layout_rejects_empty():
    with pytest.raises(ValueError):
        compose_layout([])


def test_bosonic_cutoff_must_be_positive():
    with pytest.raises(ValueError):
        BosonicMode(0)


# ---------------------------------------------------------------------------
# basis states and superpositions
# ---------------------------------------------------------------------------

def test_basis_state_positions():
    layout = compose_layout([("fly", FermionicMode), ("T", TwoLevel)])
    st_ = basis_state(layout, [1, "g"])
    # first subsystem varies slowest: index = 1*2 + 0
    expected = np.zeros(4)
    expected[2] = 1.0
    assert np.allclose(st_.amplitudes, expected)

    two = compose_layout([("L", FermionicMode), ("R", FermionicMode)])
    assert np.argmax(np.abs(basis_state(two, [1, 0]).amplitudes)) == 2

    one = compose_layout([("T", TwoLevel)])
    assert np.allclose(basis_state(one, ["e"]).amplitudes, [0, 1])


def test_basis_state_errors():
    layout = compose_layout([("m", BosonicMode(2)), ("T", TwoLevel)])
    with pytest.raises(ValueError, match="out of range"):
        basis_state(layout, [3, 0])
    with pytest.raises(ValueError):
        basis_state(layout, [0])
    with pytest.raises(ValueError):
        basis_state(layout, [0, "x"])


def test_superpose_single_particle_sharing():
    two = compose_layout([("L", FermionicMode), ("R", FermionicMode)])
    shared = superpose([(1, basis_state(two, [1, 0])), (1, basis_state(two, [0, 1]))])
    assert np.allclose(shared.amplitudes, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])


def test_superpose_mode_with_and_without_particle():
    one = compose_layout([("m", FermionicMode)])
    plus = superpose([(1, basis_state(one, [0])), (1, basis_state(one, [1]))])
    assert np.allclose(plus.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_superpose_renormalizes():
    one = compose_layout([("T", TwoLevel)])
    st_ = superpose([(2.0, basis_state(one, ["g"]))])
    assert np.allclose(st_.amplitudes, [1, 0])


def test_superpose_rejects_layout_mismatch():
    a = basis_state(compose_layout([("x", TwoLevel)]), ["g"])
    b = basis_state(compose_layout([("y", TwoLevel)]), ["g"])
    with pytest.raises(ValueError, match="layout"):
        superpose([(1, a), (1, b)])


def test_superpose_rejects_zero_vector():
    one = compose_layout([("T", TwoLevel)])
    g = basis_state(one, ["g"])
    with pytest.raises(ValueError, match="zero"):
        superpose([(1, g), (-1, g)])


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12))
@settings(max_examples=50, deadline=None)
def test_superpose_always_normalized(seed, nterms):
    rng = np.random.default_rng(seed)
    layout = compose_layout([("a", TwoLevel), ("b", FermionicMode)])
    terms = [(rng.normal() + 1j * rng.normal(), rand_pure_state(rng, layout))
             for _ in range(nterms)]
    try:
        st_ = superpose(terms)
    except ValueError:
        return  # collapsed to zero, legitimately rejected
    assert abs(np.linalg.norm(st_.amplitudes) - 1) < 1e-12


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

def test_coherent_vacuum():
    for cutoff in (1, 5, 17):
        st_, weight = coherent_mode_state(cutoff, 0.0)
        assert np.allclose(st_.amplitudes, np.eye(cutoff + 1)[0])
        assert weight == 0.0


def test_coherent_amplitudes_match_factorial_series():
    for eta in (1.0, 0.6 - 1.3j):
        st_, _ = coherent_mode_state(10, eta)
        expected = np.array([eta ** n / math.sqrt(math.factorial(n)) for n in range(11)])
        expected /= np.linalg.norm(expected)
        assert np.allclose(st_.amplitudes, expected, atol=1e-14)


def test_coherent_large_amplitude_is_truncated_poisson():
    # |eta|^2 = 1e4 is far past where eta^n / sqrt(n!) overflows a float
    from scipy import stats
    cutoff = default_coherent_cutoff(100.0)
    assert cutoff == 10820
    st_, weight = coherent_mode_state(cutoff, 100.0)
    probs = np.abs(st_.amplitudes) ** 2
    assert abs(np.linalg.norm(st_.amplitudes) - 1) < 1e-12
    assert weight < 1e-10
    expected = stats.poisson.pmf(np.arange(cutoff + 1), 1e4)
    assert np.allclose(probs, expected, rtol=1e-9, atol=1e-15)


def test_coherent_mean_occupation():
    # independent oracle: truncated Poissonian moments from factorials
    eta, cutoff = 2.0, 30
    p = np.array([abs(eta) ** (2 * n) / math.factorial(n) for n in range(cutoff + 1)])
    p /= p.sum()
    mean_expected = float(np.sum(np.arange(cutoff + 1) * p))
    st_, _ = coherent_mode_state(cutoff, eta)
    mean = float(np.sum(np.arange(cutoff + 1) * np.abs(st_.amplitudes) ** 2))
    assert abs(mean - mean_expected) < 1e-12
    assert abs(mean - 4.0) < 1e-9  # within truncation tolerance of |eta|^2


def test_coherent_truncation_weight_matches_poisson_tail():
    eta, cutoff = 1.5, 6
    lam = abs(eta) ** 2
    tail = 1.0 - math.exp(-lam) * sum(lam ** n / math.factorial(n) for n in range(cutoff + 1))
    _, weight = coherent_mode_state(cutoff, eta)
    assert abs(weight - tail) < 1e-12


def test_coherent_rejects_small_cutoff():
    with pytest.raises(ValueError):
        coherent_mode_state(0, 1.0)


def test_coherent_convergence_at_default_cutoff():
    for eta in (0.7, 2.0, 3.5 + 1.2j):
        c = default_coherent_cutoff(eta)
        a, _ = coherent_mode_state(c, eta)
        b, _ = coherent_mode_state(c + 10, eta)
        padded = np.zeros(c + 11, dtype=complex)
        padded[:c + 1] = a.amplitudes
        assert np.linalg.norm(padded - b.amplitudes) < 1e-10


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_tensor_attaches_ground_targets():
    modes = compose_layout([("L", FermionicMode), ("R", FermionicMode)])
    shared = superpose([(1, basis_state(modes, [1, 0])), (1, basis_state(modes, [0, 1]))])
    targets = basis_state(compose_layout([("tl", TwoLevel), ("tr", TwoLevel)]), ["g", "g"])
    joint = tensor(shared, targets)
    assert joint.layout.labels == ("L", "R", "tl", "tr")
    expected = np.zeros(16)
    expected[0b1000] = 1 / math.sqrt(2)  # |10> x |gg>
    expected[0b0100] = 1 / math.sqrt(2)  # |01> x |gg>
    assert np.allclose(joint.amplitudes, expected)


def test_tensor_rejects_label_collision():
    a = basis_state(compose_layout([("x", TwoLevel)]), ["g"])
    with pytest.raises(ValueError, match="collision"):
        tensor(a, a)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_tensor_norm_and_associativity(seed):
    rng = np.random.default_rng(seed)
    a = rand_pure_state(rng, compose_layout([("a", TwoLevel)]))
    b = rand_pure_state(rng, compose_layout([("b", BosonicMode(2))]))
    c = rand_pure_state(rng, compose_layout([("c", FermionicMode)]))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert abs(np.linalg.norm(left.amplitudes) - 1) < 1e-12
    assert np.allclose(left.amplitudes, right.amplitudes, atol=1e-15)


# ---------------------------------------------------------------------------
# operator embedding
# ---------------------------------------------------------------------------

SP = np.array([[0, 0], [1, 0]], dtype=complex)


def test_embed_on_first_subsystem():
    layout = compose_layout([("T", TwoLevel), ("m", BosonicMode(2))])
    embedded = embed_local(layout, SP, ["T"])
    assert np.allclose(dense(embedded), np.kron(SP, np.eye(3)))


def test_embed_on_second_subsystem():
    layout = compose_layout([("T", TwoLevel), ("m", BosonicMode(2))])
    a = np.diag(np.sqrt([1.0, 2.0]), k=1)
    embedded = embed_local(layout, a, ["m"])
    assert np.allclose(dense(embedded), np.kron(np.eye(2), a))


def test_embed_multiplication_homomorphism():
    rng = np.random.default_rng(7)
    layout = compose_layout([("a", TwoLevel), ("b", BosonicMode(2)), ("c", FermionicMode)])
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = dense(embed_local(layout, x @ y, ["b"]))
    rhs = dense(embed_local(layout, x, ["b"])) @ dense(embed_local(layout, y, ["b"]))
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_embed_nonadjacent_and_reordered_targets():
    # oracle: act on basis states directly
    layout = compose_layout([("a", TwoLevel), ("b", BosonicMode(1)), ("c", TwoLevel)])
    rng = np.random.default_rng(3)
    local = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))  # acts on (c, a)
    embedded = dense(embed_local(layout, local, ["c", "a"]))
    dims = (2, 2, 2)
    expected = np.zeros((8, 8), dtype=complex)
    for col in range(8):
        ia, ib, ic = np.unravel_index(col, dims)
        for rc in range(2):
            for ra in range(2):
                val = local[rc * 2 + ra, ic * 2 + ia]
                row = np.ravel_multi_index((ra, ib, rc), dims)
                expected[row, col] += val
    assert np.allclose(embedded, expected, atol=1e-14)


_KINDS = st.sampled_from([TwoLevel(), FermionicMode(), BosonicMode(1), BosonicMode(2),
                          BosonicMode(3)])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_embed_matches_kron_oracle(data):
    kinds = data.draw(st.lists(_KINDS, min_size=1, max_size=4))
    layout = compose_layout([(f"s{i}", kind) for i, kind in enumerate(kinds)])
    order = data.draw(st.permutations(layout.labels))
    targets = order[:data.draw(st.integers(1, len(order)))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    d = int(np.prod([layout.kind_of(lab).dim for lab in targets]))
    local = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    local[rng.random((d, d)) < data.draw(st.floats(0.0, 1.0))] = 0.0
    embedded = dense(embed_local(layout, local, targets))
    assert np.array_equal(embedded, dense_embed(layout, local, targets))


def test_embed_errors():
    layout = compose_layout([("a", TwoLevel), ("b", BosonicMode(1))])
    with pytest.raises(KeyError):
        embed_local(layout, SP, ["nope"])
    with pytest.raises(ValueError, match="at least one target"):
        embed_local(layout, np.eye(1), [])
    with pytest.raises(ValueError, match="distinct"):
        embed_local(layout, np.eye(4), ["a", "a"])


# ---------------------------------------------------------------------------
# partial trace of a pure state (reduced_density)
# ---------------------------------------------------------------------------

def test_partial_trace_of_product_state():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rand_pure_state(rng, compose_layout([("a", BosonicMode(2))]))
        b = rand_pure_state(rng, compose_layout([("b", TwoLevel)]))
        reduced = reduced_density(tensor(a, b), ["a"])
        assert np.allclose(reduced.matrix, np.outer(a.amplitudes, a.amplitudes.conj()),
                           atol=1e-12)


def test_partial_trace_bell_is_maximally_mixed():
    layout = compose_layout([("L", TwoLevel), ("R", TwoLevel)])
    bell = superpose([(1, basis_state(layout, ["g", "e"])), (1, basis_state(layout, ["e", "g"]))])
    reduced = reduced_density(bell, ["L"])
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(23)
    layout = compose_layout([("a", TwoLevel), ("b", BosonicMode(2)), ("c", FermionicMode)])
    for _ in range(10):
        red = reduced_density(rand_pure_state(rng, layout), ["b", "a"])
        assert abs(np.trace(red.matrix) - 1) < 1e-12
        assert np.max(np.abs(red.matrix - red.matrix.conj().T)) < 1e-12


def test_partial_trace_keep_order_contract():
    rng = np.random.default_rng(31)
    layout = compose_layout([("a", TwoLevel), ("b", TwoLevel)])
    psi = rand_pure_state(rng, layout)
    ab = reduced_density(psi, ["a", "b"]).matrix
    ba = reduced_density(psi, ["b", "a"]).matrix
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1
    assert np.allclose(ba, swap @ ab @ swap.T, atol=1e-14)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_partial_trace_matches_pure_reduction(data):
    kinds = data.draw(st.lists(_KINDS, min_size=1, max_size=4))
    layout = compose_layout([(f"s{i}", kind) for i, kind in enumerate(kinds)])
    order = data.draw(st.permutations(layout.labels))
    keep = order[:data.draw(st.integers(1, len(order)))]
    psi = rand_pure_state(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), layout)
    reduced = reduced_density(psi, keep)
    assert reduced.layout.labels == tuple(keep)
    assert np.max(np.abs(reduced.matrix - dense_partial_trace(psi, keep))) < 1e-13


def test_partial_trace_errors():
    layout = compose_layout([("a", TwoLevel), ("b", TwoLevel)])
    psi = basis_state(layout, ["g", "g"])
    with pytest.raises(KeyError):
        reduced_density(psi, ["zzz"])
    with pytest.raises(ValueError, match="non-empty"):
        reduced_density(psi, [])
    with pytest.raises(ValueError, match="distinct"):
        reduced_density(psi, ["a", "a"])


# ---------------------------------------------------------------------------
# value validation
# ---------------------------------------------------------------------------

def test_pure_state_requires_normalization():
    layout = compose_layout([("T", TwoLevel)])
    with pytest.raises(ValueError, match="norm"):
        PureState(layout, np.array([1.0, 1.0]))


def test_density_validation():
    layout = compose_layout([("T", TwoLevel)])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOp(layout, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityOp(layout, np.eye(2))
    with pytest.raises(ValueError, match="negative"):
        DensityOp(layout, np.diag([1.5, -0.5]))


def test_nan_states_and_densities_are_rejected():
    layout = compose_layout([("T", TwoLevel)])
    with pytest.raises(ValueError, match="norm"):
        PureState(layout, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="norm"):
        PureState(layout, np.array([np.nan, np.nan]))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOp(layout, np.array([[np.nan, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOp(layout, np.full((2, 2), np.nan))


def test_linear_op_triplet_checks():
    layout = compose_layout([("T", TwoLevel)])
    with pytest.raises(ValueError, match="lengths"):
        LinearOp(layout, [0, 1], [0], [1.0])
    with pytest.raises(ValueError, match="out of range"):
        LinearOp(layout, [-1], [0], [1.0])
    op = LinearOp(layout, [0, 1], [1, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        op.values[0] = 2.0


def test_linear_op_dimension_check():
    layout = compose_layout([("T", TwoLevel)])
    with pytest.raises(ValueError):
        linear_op(layout, np.eye(3))


def test_states_are_immutable():
    layout = compose_layout([("T", TwoLevel)])
    st_ = basis_state(layout, ["g"])
    with pytest.raises(ValueError):
        st_.amplitudes[0] = 0.0
