import cmath
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from conftest import (
    dense_partial_trace,
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
from modent.protocols import coherent_field_rotation


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


def test_compose_layout_rejects_unknown_kind():
    # BosonicMode has a cutoff, so its bare class is no kind
    for kind in ("qubit", BosonicMode, 2):
        with pytest.raises(ValueError, match="unknown subsystem kind"):
            compose_layout([("a", kind)])


def test_bosonic_cutoff_must_be_positive():
    with pytest.raises(ValueError):
        BosonicMode(0)
    for bad in (True, 2.0, 2.5):
        with pytest.raises(ValueError, match=f"cutoff must be an integer >= 1, got {bad!r}"):
            BosonicMode(bad)
    # a numpy integer is a cutoff, stored as a Python int
    assert BosonicMode(np.int64(3)) == BosonicMode(3)
    assert type(BosonicMode(np.int64(3)).cutoff) is int


def test_layout_shape_is_cached_without_changing_equality():
    subsystems = [("T", TwoLevel), ("m", BosonicMode(2)), ("f", FermionicMode)]
    layout, fresh = compose_layout(subsystems), compose_layout(subsystems)
    before = hash(layout)
    shape = (layout.labels, layout.dims, layout.dim, layout.strides())
    assert shape == (("T", "m", "f"), (2, 3, 2), 12, (6, 2, 1))
    assert layout.dims is layout.dims and layout.strides() is layout.strides()
    assert layout == fresh and hash(layout) == hash(fresh) == before
    assert {layout: 1}[fresh] == 1


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


def test_superpose_rejects_no_terms():
    with pytest.raises(ValueError, match="superpose needs at least one term"):
        superpose([])


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


def _oracle_amplitudes(cutoff, eta):
    """The amplitude formula on scipy's log-gamma."""
    n = np.arange(cutoff + 1)
    log_mag = n * math.log(abs(eta)) - 0.5 * special.gammaln(n + 1)
    amps = np.exp(log_mag - log_mag.max()) * np.exp(1j * n * cmath.phase(eta))
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("eta", [0.5, 1.5 * cmath.exp(0.7j), 8.0, 20.0, 100.0, 358.0])
def test_coherent_state_matches_scipy_oracle(eta):
    # cutoffs: automatic; far below, below, inside and above the Poisson bulk;
    # and either side of where the truncation weight crosses the 1e-8 refusal
    # threshold
    lam = abs(eta) ** 2
    spread = math.sqrt(lam)
    auto = default_coherent_cutoff(eta)
    c = np.arange(1, auto + 1)
    first_kept = int(c[np.argmax(special.gammainc(c + 1, lam) <= 1e-8)])
    cutoffs = {auto, 1, int(lam / 2), int(lam - 3 * spread), round(lam),
               int(lam + 3 * spread), first_kept - 1, first_kept}
    rel_tol = 1e-12 if abs(eta) <= 20 else 1e-9
    for cutoff in sorted(max(1, k) for k in cutoffs):
        state, weight = coherent_mode_state(cutoff, eta)
        want = float(special.gammainc(cutoff + 1, lam))
        assert abs(weight - want) <= rel_tol * want, (cutoff, weight, want)
        if abs(want / 1e-8 - 1) > 1e-6:
            assert (weight > 1e-8) == (want > 1e-8), (cutoff, weight, want)
        if abs(eta) <= 20:
            assert np.max(np.abs(state.amplitudes - _oracle_amplitudes(cutoff, eta))) < 1e-12


@pytest.mark.parametrize("eta", [100.0, 358.0])
def test_coherent_amplitudes_keep_relative_accuracy_near_the_peak(eta):
    # c_n / c_k for n within 6 eta of the largest amplitude c_k, against a
    # 40-digit evaluation of c_n / c_{n-1} = eta / sqrt(n); amplitudes formed
    # from n log(eta) - log(n!) / 2, two terms of order 1e6, missed it by
    # 1.9e-11 at eta 100 and 3.0e-10 at eta 358
    amps = np.abs(coherent_mode_state(default_coherent_cutoff(eta), eta)[0].amplitudes)
    k = int(np.argmax(amps))
    reach = int(6 * eta)
    ctx = decimal.Context(prec=40)
    e = decimal.Decimal(eta)
    want = {k: decimal.Decimal(1)}
    for n in range(k + 1, k + reach + 1):
        want[n] = ctx.divide(ctx.multiply(want[n - 1], e), ctx.sqrt(n))
    for n in range(k - 1, k - reach - 1, -1):
        want[n] = ctx.divide(ctx.multiply(want[n + 1], ctx.sqrt(n + 1)), e)
    peak = decimal.Decimal(amps[k])
    worst = max(abs(ctx.divide(ctx.divide(decimal.Decimal(amps[n]), peak), ratio) - 1)
                for n, ratio in want.items())
    assert worst < 1e-12


@pytest.mark.parametrize("eta", [0.0, 1e-200, 1e-310, 5e-324])
def test_coherent_weight_is_zero_when_eta_squared_underflows(eta):
    # at 5e-324, |eta| / sqrt(n) underflows to 0 from n = 4 on: its log is
    # -inf and the amplitude 0, without a divide-by-zero RuntimeWarning
    for cutoff in (1, 5, default_coherent_cutoff(eta)):
        state, weight = coherent_mode_state(cutoff, eta)
        assert weight == 0.0 == special.gammainc(cutoff + 1, abs(eta) ** 2)
        assert abs(state.amplitudes[0] - 1) < 1e-12


@pytest.mark.parametrize("eta", [1e200, 1e200 + 1e200j, 1e308])
def test_coherent_weight_is_one_when_eta_squared_overflows(eta):
    # |eta|^2 overflows the float range: all of the weight lies beyond any
    # cutoff, and the amplitudes stay finite and normalized
    state, weight = coherent_mode_state(5, eta)
    assert weight == 1.0
    assert np.all(np.isfinite(state.amplitudes))
    assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12
    assert abs(abs(state.amplitudes[-1]) - 1) < 1e-12


@pytest.mark.parametrize("eta", [math.inf, -math.inf, math.nan, complex(math.inf, 0),
                                 complex(0, math.nan)])
def test_coherent_rejects_non_finite_eta(eta):
    # refused by name before any arithmetic; a RuntimeWarning would fail the test
    with pytest.raises(ValueError, match="eta must be finite"):
        coherent_mode_state(5, eta)
    with pytest.raises(ValueError, match="eta must be finite"):
        default_coherent_cutoff(eta)
    with pytest.raises(ValueError, match="eta must be finite"):
        coherent_field_rotation(1, 0, eta)


@pytest.mark.parametrize("eta", [1e200, -1e200, complex(0, 1.5e154), 1.79e308])
def test_coherent_refuses_an_automatic_cutoff_that_overflows(eta):
    # eta is finite but eta**2 + 8 eta + 20 is not: refused by name, as
    # a ValueError like a non-finite eta
    with pytest.raises(ValueError, match="eta must be finite, and so must the automatic cutoff"):
        default_coherent_cutoff(eta)
    with pytest.raises(ValueError, match=r"automatic cutoff .*, got .*e\+(154|200|308)"):
        coherent_field_rotation(1, 0, eta)


def test_coherent_rejects_small_cutoff():
    with pytest.raises(ValueError):
        coherent_mode_state(0, 1.0)
    with pytest.raises(ValueError, match="got True"):
        coherent_mode_state(True, 1.0)
    state, weight = coherent_mode_state(np.int64(5), 1.0)
    reference, ref_weight = coherent_mode_state(5, 1.0)
    assert state.layout == reference.layout and weight == ref_weight
    assert np.array_equal(state.amplitudes, reference.amplitudes)


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


_KINDS = st.sampled_from([TwoLevel(), FermionicMode(), BosonicMode(1), BosonicMode(2),
                          BosonicMode(3)])


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
    # a bare string is one label, not a sequence of one-character labels
    three = compose_layout([("a", TwoLevel), ("b", TwoLevel), ("ab", TwoLevel)])
    psi3 = basis_state(three, ["g", "g", "g"])
    for label in ("ab", "target"):
        with pytest.raises(TypeError, match=f"not the string {label!r}"):
            reduced_density(psi3, label)


# ---------------------------------------------------------------------------
# value validation
# ---------------------------------------------------------------------------

def test_pure_state_requires_normalization():
    layout = compose_layout([("T", TwoLevel)])
    with pytest.raises(ValueError, match="norm"):
        PureState(layout, np.array([1.0, 1.0]))


def test_pure_state_refuses_wrong_length():
    layout = compose_layout([("T", TwoLevel)])
    with pytest.raises(ValueError, match="amplitude vector has length 3, layout dimension is 2"):
        PureState(layout, np.array([1.0, 0.0, 0.0]))


def test_overlap_refuses_states_of_other_dimensions():
    qubit = basis_state(compose_layout([("T", TwoLevel)]), ["g"])
    mode = basis_state(compose_layout([("m", BosonicMode(2))]), [0])
    with pytest.raises(ValueError, match="overlap requires states of matching dimensions"):
        qubit.overlap(mode)


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
    with pytest.raises(ValueError, match="norm"):
        PureState(layout, np.array([np.inf, 0.0]))
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
