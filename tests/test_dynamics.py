import contextlib
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    annihilation,
    collision_unitary,
    dense,
    dense_collective_jc,
    dense_embed,
    dense_mixing,
    dense_partial_trace,
    dense_propagator,
    linear_op,
    rand_amplitude_pair,
    rand_hermitian,
    rand_pure_state,
    traced_peak,
)
from modent import (
    BosonicMode,
    FermionicMode,
    LinearOp,
    PureState,
    TwoLevel,
    basis_state,
    compose_layout,
    concurrence,
    evolve,
    jc_hamiltonian,
    reduced_density,
    superpose,
    tensor,
)
from modent import dynamics, protocols
from modent.protocols import (
    coherent_field_rotation,
    massless_absorption,
    sequential_rotation,
    simultaneous_coupling_check,
    single_ancilla_rotation,
)


def _qubit_mode_layout(kind=FermionicMode):
    return compose_layout([("T", TwoLevel), ("m", kind)])


def _scaled(h, strength):
    """H with every triplet value times ``strength``: the coupling at J = strength."""
    return LinearOp(h.layout, h.rows, h.cols, strength * h.values)


# ---------------------------------------------------------------------------
# exchange Hamiltonian
# ---------------------------------------------------------------------------

def test_jc_block_on_single_excitation_subspace():
    layout = _qubit_mode_layout()
    h = dense(jc_hamiltonian(layout, "T", ("m",)))
    # ordered basis {|g>|1>, |e>|0>}: indices 1 and 2 (T slowest)
    block = h[np.ix_([1, 2], [1, 2])]
    assert np.allclose(block, [[0, -1j], [1j, 0]], atol=1e-15)


def test_jc_vacuum_is_dark():
    layout = _qubit_mode_layout()
    h = dense(jc_hamiltonian(layout, "T", ("m",)))
    assert np.all(h[0, :] == 0)
    assert np.all(h[:, 0] == 0)


def test_jc_exactly_hermitian():
    for kind in (FermionicMode, BosonicMode(3)):
        layout = _qubit_mode_layout(kind)
        h = dense(_scaled(jc_hamiltonian(layout, "T", ("m",)), 2.5))
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_jc_kind_validation():
    layout = compose_layout([("T", TwoLevel), ("m", FermionicMode)])
    with pytest.raises(ValueError, match="TwoLevel"):
        jc_hamiltonian(layout, "m", ("T",))
    with pytest.raises(KeyError):
        jc_hamiltonian(layout, "T", ("absent",))


def test_jc_commutes_with_excitation_number():
    for kind in (FermionicMode, BosonicMode(3)):
        layout = _qubit_mode_layout(kind)
        h = dense(jc_hamiltonian(layout, "T", ("m",)))
        excite = dense_embed(layout, np.diag([0.0, 1.0]), ["T"])
        a = annihilation(layout.kind_of("m"))
        occupy = dense_embed(layout, a.conj().T @ a, ["m"])
        total = excite + occupy
        assert np.max(np.abs(h @ total - total @ h)) < 1e-12


def test_collective_single_mode_reduces_to_jc():
    layout = compose_layout([("T", TwoLevel), ("m0", BosonicMode(2)), ("m1", FermionicMode)])
    both = jc_hamiltonian(layout, "T", ("m0", "m1"))
    terms = jc_hamiltonian(layout, "T", ("m0",)) + jc_hamiltonian(layout, "T", ("m1",))
    assert np.array_equal(dense(both), dense(terms))
    # the same triplets in the same order as the sum of the one-mode terms
    for name in ("rows", "cols", "values"):
        assert np.array_equal(getattr(both, name), getattr(terms, name))


def test_collective_two_modes_spreads_excitation_evenly():
    layout = compose_layout([("T", TwoLevel), ("m0", FermionicMode), ("m1", FermionicMode)])
    h = jc_hamiltonian(layout, "T", ("m0", "m1"))
    assert np.max(np.abs(dense(h) - dense(h).conj().T)) == 0.0
    excited_empty = basis_state(layout, ["e", 0, 0])
    image = dense(h) @ excited_empty.amplitudes
    g10 = basis_state(layout, ["g", 1, 0]).amplitudes
    g01 = basis_state(layout, ["g", 0, 1]).amplitudes
    w10 = complex(np.vdot(g10, image))
    w01 = complex(np.vdot(g01, image))
    assert abs(w10 - w01) < 1e-15
    assert abs(w10) > 0
    residual = image - w10 * g10 - w01 * g01
    assert np.linalg.norm(residual) < 1e-15


@st.composite
def _strength_coupled_layouts(draw):
    """A qubit and 1-4 fermionic or bosonic modes in random order, the
    coupled modes (a random non-empty subset; the rest are spectators) and a
    coupling strength."""
    kinds = draw(st.lists(st.sampled_from([FermionicMode(), BosonicMode(1), BosonicMode(2)]),
                          min_size=1, max_size=4))
    modes = [f"m{k}" for k in range(len(kinds))]
    layout = compose_layout(draw(st.permutations([("T", TwoLevel())] + list(zip(modes, kinds)))))
    coupled = draw(st.lists(st.sampled_from(modes), min_size=1, unique=True))
    return layout, tuple(coupled), draw(st.floats(0.1, 3.0))


@given(_strength_coupled_layouts())
@settings(max_examples=60, deadline=None)
def test_collective_matches_dense_sum_oracle(case):
    layout, coupled, strength = case
    assert np.array_equal(dense(_scaled(jc_hamiltonian(layout, "T", coupled), strength)),
                          strength * dense_collective_jc(layout, "T", coupled))


def _gauge_phase(layout):
    """i^q per basis state, q the sum of the two-level indices, decoded index by index."""
    qubits = [i for i, (_, kind) in enumerate(layout.subsystems) if isinstance(kind, TwoLevel)]
    levels = np.unravel_index(np.arange(layout.dim), layout.dims)
    q = sum((levels[i] for i in qubits), np.zeros(layout.dim, dtype=int))
    return np.array([1j ** int(k) for k in q])


def _gauged(layout, h):
    """D^dag H D with D = diag(i^q), as a dense product."""
    phase = _gauge_phase(layout)
    return phase.conj()[:, None] * h * phase


def _ladder_layouts():
    """A qubit, listed first, beside a FermionicMode or a BosonicMode(L) for
    L = 1 .. 40, with the couplings of the mode's levels above the ground."""
    yield _qubit_mode_layout(FermionicMode), np.ones(1)
    for cutoff in range(1, 41):
        yield _qubit_mode_layout(BosonicMode(cutoff)), np.sqrt(np.arange(1.0, cutoff + 1))


def _doublets(b):
    """The basis indices (n, L + n) of the doublets {|g, n>, |e, n - 1>},
    n = 1 .. L, of a qubit listed first beside a ladder of L + 1 levels."""
    n = np.arange(1, b.size + 1)
    return np.stack([n, b.size + n], axis=1)


def test_sector_blocks_match_dense_oracle_bit_for_bit():
    # the doublets that _propagate reads as two slices are the two-state
    # sectors of the gauged dense jc_hamiltonian, which holds exactly b there;
    # the eigh of those blocks is the closed form's constants bit for bit,
    # and _propagate is the dense exponential of H
    for layout, b in _ladder_layouts():
        h = dense(jc_hamiltonian(layout, "T", ("m",)))
        gauged = _gauged(layout, h)
        assert np.all(gauged.imag == 0)
        pairs = _doublets(b)
        # the pairs are the two-state sectors, by excitation number, each in
        # increasing order; the two other states are alone in their sectors
        sector = np.indices(layout.dims).sum(axis=0).ravel()
        sizes = np.bincount(sector)
        assert pairs.shape == (np.count_nonzero(sizes == 2), 2)
        assert np.array_equal(sector[pairs[:, 0]], sector[pairs[:, 1]])
        assert np.all(np.diff(sector[pairs[:, 0]]) > 0) and np.all(pairs[:, 0] < pairs[:, 1])
        alone = np.setdiff1d(np.arange(layout.dim), pairs)
        assert np.all(sizes[sector[alone]] == 1)
        # the pairs' couplings are every entry of the gauged H, on every state
        assert b.tobytes() == gauged.real[pairs[:, 1], pairs[:, 0]].tobytes()
        rebuilt = np.zeros((layout.dim, layout.dim))
        rebuilt[pairs[:, 1], pairs[:, 0]] = rebuilt[pairs[:, 0], pairs[:, 1]] = b
        assert np.array_equal(rebuilt, gauged.real)
        # the oracle's signed zeros are made +0.0, as a symmetric block holds them
        _assert_eigh_bits(gauged.real[pairs[:, :, None], pairs[:, None, :]] + 0.0, b)
        for t in (0.3, -2.7, math.pi / 4):
            closed = dynamics._propagate(b, np.eye(layout.dim), t)
            assert np.max(np.abs(closed - dense_propagator(h, t))) < 1e-14


def test_sum_of_operators_densifies_to_dense_sum():
    layout = compose_layout([("T", TwoLevel), ("m0", BosonicMode(2)), ("m1", FermionicMode)])
    h = _scaled(jc_hamiltonian(layout, "T", ("m0", "m1")), 0.7)
    assert np.array_equal(dense(h + h), dense(h) + dense(h))
    # the repeated triplets of a one-mode coupling add up when evolve gathers them
    layout = _qubit_mode_layout(BosonicMode(3))
    h = _scaled(jc_hamiltonian(layout, "T", ("m",)), 0.7)
    psi = rand_pure_state(np.random.default_rng(3), layout)
    twice = dense_propagator(2 * dense(h), 0.9) @ psi.amplitudes
    assert np.max(np.abs(evolve(psi, h + h, 0.9).amplitudes - twice)) < 1e-12
    other = compose_layout([("m", BosonicMode(3)), ("T", TwoLevel)])
    with pytest.raises(ValueError, match="different layouts"):
        h + jc_hamiltonian(other, "T", ("m",))


def test_coupling_spec_validation():
    layout = _qubit_mode_layout()
    with pytest.raises(ValueError, match="at least one"):
        jc_hamiltonian(layout, "T", ())
    with pytest.raises(ValueError, match="distinct"):
        jc_hamiltonian(layout, "T", ("T",))
    with pytest.raises(ValueError, match="distinct"):
        jc_hamiltonian(layout, "T", ("m", "m"))
    with pytest.raises(ValueError, match="bosonic or fermionic"):
        jc_hamiltonian(compose_layout([("T", TwoLevel), ("m", TwoLevel)]), "T", ("m",))
    # a bare string is one label, not the sequence of its characters
    one_letter = compose_layout([("T", TwoLevel), ("m", FermionicMode), ("0", FermionicMode)])
    with pytest.raises(TypeError, match="not the string 'm0'"):
        jc_hamiltonian(one_letter, "T", "m0")


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _evolved_columns(h, t):
    """exp(-i H t) assembled column by column from evolve on each basis state."""
    return np.column_stack([evolve(basis_state(h.layout, levels), h, t).amplitudes
                            for levels in np.ndindex(*h.layout.dims)])


def test_evolve_zero_time_is_identity():
    layout = _qubit_mode_layout()
    h = jc_hamiltonian(layout, "T", ("m",))
    psi = superpose([(1, basis_state(layout, ["g", 1])), (2, basis_state(layout, ["e", 0]))])
    out = evolve(psi, h, 0.0)
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-14


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_time_is_refused(t):
    layout = _qubit_mode_layout()
    h = jc_hamiltonian(layout, "T", ("m",))
    with pytest.raises(ValueError, match="evolution time"):
        evolve(basis_state(layout, ["e", 0]), h, t)
    with pytest.raises(ValueError, match=r"evolution time .* is not finite"):
        protocols._collision_channel(t)


def test_evolve_full_absorption():
    layout = compose_layout([("m", FermionicMode), ("T", TwoLevel)])
    h = jc_hamiltonian(layout, "T", ("m",))
    occupied_ground = basis_state(layout, [1, "g"])
    out = evolve(occupied_ground, h, math.pi / 2)
    empty_excited = basis_state(layout, [0, "e"])
    assert abs(abs(out.overlap(empty_excited)) - 1) < 1e-12


def test_evolve_half_absorption_is_balanced():
    layout = compose_layout([("m", FermionicMode), ("T", TwoLevel)])
    h = jc_hamiltonian(layout, "T", ("m",))
    out = evolve(basis_state(layout, [1, "g"]), h, math.pi / 4)
    a_start = out.overlap(basis_state(layout, [1, "g"]))
    a_flip = out.overlap(basis_state(layout, [0, "e"]))
    assert abs(abs(a_start) - 1 / math.sqrt(2)) < 1e-12
    assert abs(abs(a_flip) - 1 / math.sqrt(2)) < 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_evolve_preserves_norm(seed, t):
    rng = np.random.default_rng(seed)
    layout = compose_layout([("a", TwoLevel), ("b", BosonicMode(2))])
    h = linear_op(layout, rand_hermitian(rng, layout.dim))
    psi = rand_pure_state(rng, layout)
    out = evolve(psi, h, t)
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_evolve_composes_in_time(seed, t1, t2):
    rng = np.random.default_rng(seed)
    layout = compose_layout([("a", TwoLevel), ("b", FermionicMode)])
    h = linear_op(layout, rand_hermitian(rng, layout.dim))
    psi = rand_pure_state(rng, layout)
    stepped = evolve(evolve(psi, h, t1), h, t2)
    direct = evolve(psi, h, t1 + t2)
    assert np.max(np.abs(stepped.amplitudes - direct.amplitudes)) < 1e-10


@given(_strength_coupled_layouts(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 5.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_evolve_matches_dense_oracle(case, seed, t, random_h):
    # a JC Hamiltonian of one or more modes, or a random Hermitian H that
    # joins the sectors and has no real gauge: one Krylov step for all
    layout, coupled, strength = case
    rng = np.random.default_rng(seed)
    h = (linear_op(layout, rand_hermitian(rng, layout.dim)) if random_h
         else _scaled(jc_hamiltonian(layout, "T", coupled), strength))
    u = dense_propagator(dense(h), t)
    assert np.max(np.abs(_evolved_columns(h, t) - u)) < 1e-12
    psi = rand_pure_state(rng, layout)
    assert np.max(np.abs(evolve(psi, h, t).amplitudes - u @ psi.amplitudes)) < 1e-12


@st.composite
def _gauge_real_hamiltonians(draw):
    """A Hermitian H with a real gauge: either a sum of couplings of 1-2
    qubits, each mode coupled to one of them, or D S D^dag for a random real
    symmetric S that couples every sector."""
    n_qubits = draw(st.integers(1, 2))
    kinds = draw(st.lists(st.sampled_from([FermionicMode(), BosonicMode(1), BosonicMode(2)]),
                          min_size=n_qubits, max_size=3))
    qubits = [(f"T{j}", TwoLevel()) for j in range(n_qubits)]
    modes = [(f"m{k}", kind) for k, kind in enumerate(kinds)]
    layout = compose_layout(draw(st.permutations(qubits + modes)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        z = rng.normal(size=(layout.dim, layout.dim))
        return layout, linear_op(layout, _gauged(layout, z + z.T).conj())
    h = None
    for k, (label, _) in enumerate(modes):
        term = _scaled(jc_hamiltonian(layout, f"T{k % n_qubits}", (label,)),
                       draw(st.floats(0.1, 3.0)))
        h = term if h is None else h + term
    return layout, h


@given(_gauge_real_hamiltonians(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_real_path_matches_dense_oracle(case, seed, t):
    layout, h = case
    u = dense_propagator(dense(h), t)
    assert np.max(np.abs(_evolved_columns(h, t) - u)) < 1e-12
    psi = rand_pure_state(np.random.default_rng(seed), layout)
    assert np.max(np.abs(evolve(psi, h, t).amplitudes - u @ psi.amplitudes)) < 1e-12


@contextlib.contextmanager
def _recorded_eigh():
    """Records (shape, dtype) of every eigh call the dynamics module makes: the
    stack of one tridiagonal per excitation sector of a Krylov substep,
    (sectors, m, m), one sector when H joins them; no closed-form pair
    reaches eigh."""
    calls = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        # np.linalg is shared: skip the calls of the other modules
        if sys._getframe(1).f_globals["__name__"] == dynamics.__name__:
            calls.append((np.shape(a), np.asarray(a).dtype))
        return eigh(a, *args, **kwargs)

    dynamics.np.linalg.eigh = recording
    try:
        yield calls
    finally:
        dynamics.np.linalg.eigh = eigh


@pytest.fixture
def solver_calls():
    with _recorded_eigh() as calls:
        yield calls


def test_propagation_diagonalizes_sectors_not_the_whole_space(solver_calls):
    simultaneous_coupling_check(9)  # dimension 1024, sectors C(10, k)
    # sectors of up to 252 states take the Krylov step, which decomposes only
    # its tridiagonals: one substep, since the initial state stays in the 20
    # states symmetric in the modes (the collective reference's blocks are 2)
    assert max(shape[-1] for shape, _ in solver_calls) <= 2 * (9 + 1)
    solver_calls.clear()
    # dimension 1162: the field's doublets are written down in closed form
    # (_propagate), so no sector reaches eigh
    coherent_field_rotation(1.0, 0.0, 20.0)
    assert solver_calls == []


def _zero_diagonal_pairs(b):
    blocks = np.zeros((b.size, 2, 2))
    blocks[:, 0, 1] = blocks[:, 1, 0] = b
    return blocks


def _assert_eigh_bits(blocks, b):
    """LAPACK's eigh of the blocks [[0, b_n], [b_n, 0]] returns (-b_n, b_n) and
    the eigenvectors (e_1 -+ e_0)/sqrt(2), entries +-_HALF_ROOT, bit for bit:
    the constants that _propagate writes down."""
    h = dynamics._HALF_ROOT
    w, v = np.linalg.eigh(blocks)
    assert w.dtype == v.dtype == np.float64
    assert w.tobytes() == np.stack([-b, b], axis=1).tobytes()
    assert v.tobytes() == np.broadcast_to(np.array([[-h, h], [h, h]]), v.shape).tobytes()


def test_closed_form_pairs_match_eigh_bit_for_bit():
    # sqrt(n): the Jaynes-Cummings doublets up to 2^17 quanta, and couplings
    # scattered over 200 decades
    root = np.sqrt(np.arange(1.0, 2.0 ** 17 + 1))
    scattered = 10.0 ** np.random.default_rng(25).uniform(-100, 100, 4096)
    for b in (root, scattered):
        _assert_eigh_bits(_zero_diagonal_pairs(b), b)


def test_every_production_hamiltonian_reaches_eigh_real(solver_calls):
    # fermionic jc_hamiltonian over several modes is evolved by the Krylov
    # step, whose tridiagonals are real; the coherent field's,
    # collective_mode_reference's and the absorption's ladders are propagated
    # in closed form
    simultaneous_coupling_check(3)
    coherent_field_rotation(0.6, 0.8, 4.0)
    massless_absorption()
    assert solver_calls
    assert {dtype for _, dtype in solver_calls} == {np.dtype(np.float64)}


def test_rotation_protocols_diagonalize_nothing(solver_calls):
    sequential_rotation(0.8, 0.6, 64)
    single_ancilla_rotation(0.8, 0.6)
    # and the absorption: two one-doublet ladders in closed form
    massless_absorption()
    assert solver_calls == []


def test_evolve_refuses_a_state_of_another_dimension():
    h = jc_hamiltonian(_qubit_mode_layout(), "T", ("m",))
    with pytest.raises(ValueError, match="state and Hamiltonian dimensions do not match"):
        evolve(basis_state(compose_layout([("T", TwoLevel)]), ["g"]), h, 1.0)


def test_evolve_rejects_non_hermitian():
    layout = compose_layout([("T", TwoLevel)])
    h = linear_op(layout, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(basis_state(layout, ["g"]), h, 1.0)


def _jc_with_in_sector_asymmetry(eps):
    # |e,0> <- |g,1> lies inside the one-excitation sector: i eps there is an
    # asymmetry of modulus eps between an entry and its mirror
    layout = compose_layout([("T", TwoLevel), ("m", BosonicMode(2))])
    h = dense(jc_hamiltonian(layout, "T", ("m",))).copy()
    h[3, 1] += complex(0.0, eps)
    return basis_state(layout, ["e", 0]), linear_op(layout, h)


@pytest.mark.parametrize("eps", [1e-9, np.nan])
def test_evolve_rejects_non_hermitian_sector_block(eps):
    psi, h = _jc_with_in_sector_asymmetry(eps)
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(psi, h, 1.0)


def test_hermiticity_tolerance_accepts_rounding_asymmetry():
    psi, h = _jc_with_in_sector_asymmetry(1e-13)
    evolved = evolve(psi, h, 1.0).amplitudes
    assert abs(np.linalg.norm(evolved) - 1) < 1e-12
    assert np.max(np.abs(evolved - dense_propagator(dense(h), 1.0) @ psi.amplitudes)) < 1e-12


@pytest.mark.parametrize("extra", [(3, 1, 1e-9j), (3, 1, complex(0.0, np.nan))])
def test_real_path_refuses_non_hermitian_and_nan(extra):
    # i 1e-9 and i NaN at (|e,0>, |g,1>), a triplet beside the coupling's
    # own: added up with it, it leaves that entry and its mirror unmatched
    layout = compose_layout([("T", TwoLevel), ("m", BosonicMode(2))])
    row, col, value = extra
    h = jc_hamiltonian(layout, "T", ("m",)) + LinearOp(layout, [row], [col], [value])
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(basis_state(layout, ["e", 0]), h, 1.0)


def _collective_jc(n_modes):
    modes = tuple(f"mode{k}" for k in range(n_modes))
    layout = compose_layout([("target", TwoLevel)] + [(m, FermionicMode) for m in modes])
    return layout, jc_hamiltonian(layout, "target", modes)


def test_hermiticity_check_holds_one_temporary_at_most():
    # the check overwrites the difference its caller hands it: a field of
    # 2^16 quanta has 2^17 complex triplets (2 MiB), and their difference
    # from the mirrored values as many; a check that kept both the difference
    # and its modulus alive held a second array of that size
    h = jc_hamiltonian(_qubit_mode_layout(BosonicMode(2 ** 16)), "T", ("m",))
    values = h.values
    assert values.shape == (2 ** 17,)
    peak = traced_peak(lambda: dynamics._check_hermitian(values - values))
    assert peak < 1.5 * values.nbytes


def test_chiral_path_peaks_below_the_whole_blocks():
    # collective n = 10: the Krylov step holds the sorted triplets, the basis
    # and the work buffer of the sector recurrences (30 x 2048 complex each,
    # 0.9 MiB; the buffer also takes the gathered triplets) and a few work
    # vectors, less than half the real sector blocks of H, sum_k C(11, k)^2 =
    # C(22, 11) entries (5.4 MiB), which a decomposition would hold twice
    layout, h = _collective_jc(10)
    psi = rand_pure_state(np.random.default_rng(10), layout)
    assert traced_peak(lambda: evolve(psi, h, 1.0)) < 0.5 * 8 * math.comb(22, 11)


# ---------------------------------------------------------------------------
# large sectors: the Krylov step.  The test_chiral_* names are those of the
# sector solver this step replaced; they pin the same properties on it.
# ---------------------------------------------------------------------------

@st.composite
def _bipartite_hamiltonians(draw, sizes=st.just(7)):
    """H = D S D^dag for a random real symmetric S that joins only states of
    opposite q parity, over ``sizes`` two-level or fermionic subsystems
    (seven by default: d = 128, sectors of up to 35 states).  S either keeps
    to the excitation sectors or joins them all into one block; entries are
    dropped at random and some states are left uncoupled, so H is often
    degenerate and a Krylov basis may break down early."""
    size = draw(sizes)
    n_qubits = draw(st.integers(1, min(4, size)))
    subs = ([(f"T{j}", TwoLevel()) for j in range(n_qubits)]
            + [(f"m{k}", FermionicMode()) for k in range(size - n_qubits)])
    layout = compose_layout(draw(st.permutations(subs)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = np.unravel_index(np.arange(layout.dim), layout.dims)
    qubits = [i for i, (_, kind) in enumerate(layout.subsystems) if isinstance(kind, TwoLevel)]
    parity = sum(levels[i] for i in qubits) % 2
    density = draw(st.floats(0.05, 1.0))
    keep = (parity[:, None] != parity) & (rng.random((layout.dim, layout.dim)) < density)
    if draw(st.booleans()):
        sector = sum(levels)
        keep &= sector[:, None] == sector
    s = np.where(keep, rng.normal(size=keep.shape), 0.0)
    s = s + s.T
    dark = rng.random(layout.dim) < draw(st.floats(0.0, 0.5))
    s[dark] = 0.0
    s[:, dark] = 0.0
    return layout, linear_op(layout, _gauged(layout, s).conj())


@given(_bipartite_hamiltonians(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_chiral_path_matches_dense_oracle(case, seed, t):
    layout, h = case
    u = dense_propagator(dense(h), t)
    rng = np.random.default_rng(seed)
    # each state is propagated on its own: a sample of the basis states
    # stands for the columns of exp(-i H t)
    for k in rng.choice(layout.dim, 8, replace=False):
        column = evolve(PureState(layout, np.eye(layout.dim)[k]), h, t).amplitudes
        assert np.max(np.abs(column - u[:, k])) < 1e-12
    psi = rand_pure_state(rng, layout)
    assert np.max(np.abs(evolve(psi, h, t).amplitudes - u @ psi.amplitudes)) < 1e-12


def _rank_deficient_jc():
    # one qubit and six fermionic modes, coupled inside the sectors through
    # S + S^T with S = F G^T of rank 2: sector k holds C(6, k) even and
    # C(6, k - 1) odd states, so the 35-state sector couples its 20 x 15
    # parity blocks at rank 4
    layout = compose_layout([("T", TwoLevel)] + [(f"m{k}", FermionicMode) for k in range(6)])
    levels = np.unravel_index(np.arange(layout.dim), layout.dims)
    sector = sum(levels)
    rng = np.random.default_rng(7)
    f, g = rng.normal(size=(2, layout.dim, 2))
    s = np.where((levels[0][:, None] != levels[0]) & (sector[:, None] == sector), f @ g.T, 0.0)
    return linear_op(layout, _gauged(layout, s + s.T).conj())


def test_chiral_path_on_rank_deficient_unbalanced_blocks(solver_calls):
    # H is mostly null space: each basis state lies in a small invariant
    # subspace, so its Krylov basis breaks down early, short of _KRYLOV_DIM
    h = _rank_deficient_jc()
    assert np.linalg.matrix_rank(dense(h)) < h.layout.dim // 2
    for t in (0.0, 0.4, 3.1):
        assert np.max(np.abs(_evolved_columns(h, t) - dense_propagator(dense(h), t))) < 1e-12
    assert max(shape[-1] for shape, _ in solver_calls) < dynamics._KRYLOV_DIM


def _joined_collective_jc():
    # collective n = 9 plus a pair that joins sector 0, |g,0,...,0>, to
    # sector 3, |e,1,1,0,...,0>: H keeps no sector apart
    layout, h = _collective_jc(9)
    row = int(np.ravel_multi_index((0,) * 10, layout.dims))
    col = int(np.ravel_multi_index((1, 1, 1) + (0,) * 7, layout.dims))
    return h + LinearOp(layout, [row, col], [col, row], [0.25j, -0.25j])


def _unequal_bosonic_jc():
    # a qubit coupled to three BosonicMode(5) at strengths 1, 0.8 and 1.3: H
    # keeps the excitation sectors, and the largest holds 54 states with 54
    # distinct eigenvalues, more than one Krylov basis spans
    layout = compose_layout([("T", TwoLevel)] + [(f"b{k}", BosonicMode(5)) for k in range(3)])
    h = [_scaled(jc_hamiltonian(layout, "T", (f"b{k}",)), g) for k, g in enumerate((1.0, 0.8, 1.3))]
    return h[0] + h[1] + h[2]


@pytest.mark.parametrize("t", [50.0, 200.0, 1000.0])
def test_chiral_path_stays_unitary_at_long_times(t, solver_calls):
    # a generic state needs many substeps this long: over the whole space,
    # one sector, when H joins the sectors, in lockstep over the sectors
    # when a sector holds more distinct eigenvalues than one basis spans.
    # Each substep keeps the norm to rounding, and both the Krylov step and
    # the dense oracle are exact for H within a few eps ||H|| of the input,
    # so they drift apart by about t eps ||H|| (4e-12 at t = 1000 for the
    # bosonic H)
    h = _joined_collective_jc()
    psi = rand_pure_state(np.random.default_rng(9), h.layout)
    out = evolve(psi, h, t)
    assert len(solver_calls) > 1
    assert {shape[0] for shape, _ in solver_calls} == {1}
    assert {len(shape) for shape, _ in solver_calls} == {3}
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-13
    assert np.max(np.abs(out.amplitudes - dense_propagator(dense(h), t) @ psi.amplitudes)) < 1e-12
    h = _unequal_bosonic_jc()
    psi = rand_pure_state(np.random.default_rng(1), h.layout)
    solver_calls.clear()
    out = evolve(psi, h, t)
    assert len(solver_calls) > 1
    assert {len(shape) for shape, _ in solver_calls} == {3}
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12
    bound = 1e-12 + 8 * t * np.finfo(float).eps * np.linalg.norm(dense(h), 2)
    assert np.max(np.abs(out.amplitudes - dense_propagator(dense(h), t) @ psi.amplitudes)) < bound


@given(_bipartite_hamiltonians(st.integers(1, 7)), st.booleans(), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 5.0))
@settings(max_examples=80, deadline=None)
def test_sector_recurrences_match_dense_oracle(case, joined, seed, t):
    # spaces of 2 to 128 states; a state over one or more excitation sectors,
    # the others left empty, and when it spans several, one of them on a
    # single basis state, so that the recurrences of the sectors break down
    # at different steps.  A pair between the vacuum and the top state joins
    # sectors 0 and n: then the whole space is one sector
    layout, h = case
    rng = np.random.default_rng(seed)
    sector = np.indices(layout.dims).sum(axis=0).ravel()
    if joined:
        top = layout.dim - 1
        h = h + LinearOp(layout, [0, top], [top, 0], [0.25j, -0.25j])
    kept = rng.choice(sector.max() + 1, rng.integers(1, sector.max() + 2), replace=False)
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps[~np.isin(sector, kept)] = 0.0
    if kept.size > 1:
        single = np.flatnonzero(sector == kept[0])
        amps[single[single != rng.choice(single)]] = 0.0
    psi = PureState(layout, amps / np.linalg.norm(amps))
    with _recorded_eigh() as calls:
        out = evolve(psi, h, t).amplitudes
    assert np.max(np.abs(out - dense_propagator(dense(h), t) @ psi.amplitudes)) < 1e-12
    rows, cols = np.nonzero(dense(h))
    sectors = sector.max() + 1 if np.array_equal(sector[rows], sector[cols]) else 1
    if t > 0:
        assert calls and all(len(shape) == 3 and shape[0] == sectors for shape, _ in calls)
    if joined:
        assert sectors == 1


@pytest.mark.parametrize("n_modes", range(3, 13))
def test_collective_check_decomposes_one_stack_of_pairs(n_modes, solver_calls):
    # the symmetric state's part in sector k spans {|g, D_k>, |e, D_k-1>}
    # (D_k the symmetric k-particle state of the modes): one substep, whose
    # n + 2 sector recurrences stop after at most two vectors
    simultaneous_coupling_check(n_modes)
    assert solver_calls == [((n_modes + 2, 2, 2), np.dtype(np.float64))]


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_chiral_collective_check_matches_reference_and_eigh_path(n_modes):
    alpha, beta = rand_amplitude_pair(np.random.default_rng(n_modes))
    duration = math.pi / (4.0 * math.sqrt(n_modes))
    layout, h = _collective_jc(n_modes)
    amps = np.array([alpha, beta])
    for _ in range(n_modes):
        amps = np.kron(amps, np.array([1.0, 1.0]) / math.sqrt(2))
    psi = PureState(layout, amps)
    krylov = evolve(psi, h, duration)
    reference = protocols.collective_mode_reference(n_modes, alpha, beta, duration)
    assert np.max(np.abs(reduced_density(krylov, ["target"]).matrix - reference.matrix)) < 1e-12
    result = simultaneous_coupling_check(n_modes, alpha, beta)
    assert result["trace_distance"] < 1e-12
    assert abs(result["fidelity_gain"]) < 1e-12
    if n_modes <= 8:  # the dense oracle's eigh of the whole d x d matrix
        exact = dense_propagator(dense(h), duration) @ psi.amplitudes
        assert np.max(np.abs(krylov.amplitudes - exact)) < 1e-13


# ---------------------------------------------------------------------------
# the coupling's own product: jc_hamiltonian's H without its triplets
# ---------------------------------------------------------------------------

def _collective_state(n_modes, alpha, beta):
    # (alpha, beta) (x) |+>^N as simultaneous_coupling_check builds it
    pair = np.array([alpha, beta], dtype=complex)
    for _ in range(n_modes):
        pair = pair * protocols._PLUS_AMPLITUDE
    return np.repeat(pair, 2 ** n_modes)


def _collective_pairs():
    # 16 real pairs on the unit circle, as the CLI takes them, and 4 complex ones
    rng = np.random.default_rng(37)
    real = [(math.cos(phi), math.sin(phi)) for phi in 2 * math.pi * (np.arange(16) + 0.5) / 16]
    return real + [rand_amplitude_pair(rng) for _ in range(4)]


@pytest.mark.parametrize("n_modes", range(1, 13))
def test_coupling_product_matches_the_triplets_on_the_collective_state(n_modes):
    # the state stays symmetric in the modes, so each row adds equal terms;
    # up to eight modes the grouping of np.add.reduceat then gives the bits
    # of the slices' sum in column order, and the run is bit for bit the
    # triplets'.  From nine modes the two differ by rounding
    layout, h = _collective_jc(n_modes)
    duration = math.pi / (4.0 * math.sqrt(n_modes))
    for alpha, beta in _collective_pairs():
        amps = _collective_state(n_modes, alpha, beta)
        expected = evolve(PureState(layout, amps), h, duration).amplitudes
        got = dynamics._coupling_propagate(layout, "target", layout.labels[1:], amps, duration)
        if n_modes <= 8:
            assert got.tobytes() == expected.tobytes()
        else:
            assert np.max(np.abs(got - expected)) < 1e-14


@st.composite
def _spectator_coupled_layouts(draw):
    """A TwoLevel target "T" at any position among up to four other
    subsystems (two-level, fermionic, or bosonic with cutoff 1 to 3), and a
    nonempty subset of the modes, in any order, coupled to it."""
    kinds = st.one_of(st.just(TwoLevel()), st.just(FermionicMode()),
                      st.integers(1, 3).map(BosonicMode))
    others = draw(st.lists(kinds, min_size=1, max_size=4))
    subs = [(f"s{j}", kind) for j, kind in enumerate(others)]
    subs.insert(draw(st.integers(0, len(subs))), ("T", TwoLevel()))
    layout = compose_layout(subs)
    modes = [label for label, kind in subs if not isinstance(kind, TwoLevel)]
    assume(modes)
    coupled = draw(st.permutations(modes))[:draw(st.integers(1, len(modes)))]
    return layout, coupled


@given(_spectator_coupled_layouts(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_coupling_product_matches_evolve_and_the_dense_oracle(case, seed, t):
    layout, modes = case
    psi = rand_pure_state(np.random.default_rng(seed), layout)
    got = dynamics._coupling_propagate(layout, "T", modes, psi.amplitudes, t)
    h = jc_hamiltonian(layout, "T", modes)
    assert np.max(np.abs(got - evolve(psi, h, t).amplitudes)) < 1e-14
    exact = dense_propagator(dense_collective_jc(layout, "T", modes), t) @ psi.amplitudes
    assert np.max(np.abs(got - exact)) < 1e-12


@given(_spectator_coupled_layouts())
@settings(max_examples=60, deadline=None)
def test_jc_hamiltonian_lists_each_mode_run_then_its_conjugate(case):
    # mode by mode in the order given: the columns |g, n>, n >= 1, ascending,
    # each at the row of |e, n - 1> with the value i sqrt(n), then the same
    # triplets transposed and conjugated
    layout, modes = case
    h = jc_hamiltonian(layout, "T", modes)
    levels = np.indices(layout.dims).reshape(len(layout.dims), -1)
    q, strides = layout.position("T"), layout.strides()
    start = 0
    for mode in modes:
        k = layout.position(mode)
        col = np.flatnonzero((levels[q] == 0) & (levels[k] >= 1))
        row = col + strides[q] - strides[k]
        value = 1j * np.sqrt(levels[k, col])
        middle, stop = start + col.size, start + 2 * col.size
        assert np.array_equal(h.cols[start:middle], col)
        assert np.array_equal(h.rows[start:middle], row)
        assert h.values[start:middle].tobytes() == value.tobytes()
        assert np.array_equal(h.cols[middle:stop], row)
        assert np.array_equal(h.rows[middle:stop], col)
        assert h.values[middle:stop].tobytes() == value.conj().tobytes()
        start = stop
    assert start == h.values.size


def test_coupling_product_refuses_what_jc_hamiltonian_refuses():
    layout = compose_layout([("T", TwoLevel), ("q", TwoLevel), ("m", BosonicMode(2))])
    amps = np.eye(layout.dim)[0]
    for qubit, modes, error in (("T", "m", TypeError), ("T", (), ValueError),
                                ("T", ("m", "m"), ValueError), ("m", ("T",), ValueError),
                                ("T", ("q",), ValueError), ("T", ("x",), KeyError)):
        with pytest.raises(error):
            jc_hamiltonian(layout, qubit, modes)
        with pytest.raises(error):
            dynamics._coupling_propagate(layout, qubit, modes, amps, 1.0)


def test_collective_check_builds_no_triplets(monkeypatch):
    # the N-mode coupling runs on its own product: no LinearOp is made (so
    # no jc_hamiltonian), and no triplet propagation runs (so no evolve)
    def must_not_run(*args, **kwargs):
        raise AssertionError("collective-check built or propagated triplets")

    monkeypatch.setattr(LinearOp, "__post_init__", must_not_run)
    monkeypatch.setattr(dynamics, "_krylov_propagate", must_not_run)
    result = simultaneous_coupling_check(6, 0.6, 0.8)
    assert result["trace_distance"] < 1e-12


def test_absorption_matches_dense_oracle():
    # the sum of two one-mode couplings, one per side, with the flying modes
    # listed first: the targets' reduced state does not depend on the order
    layout = compose_layout([("fly_l", BosonicMode(1)), ("fly_r", BosonicMode(1)),
                             ("tgt_l", TwoLevel), ("tgt_r", TwoLevel)])
    h = dense_collective_jc(layout, "tgt_l", ["fly_l"]) + dense_collective_jc(layout, "tgt_r",
                                                                             ["fly_r"])
    psi = superpose([(1.0, basis_state(layout, [1, 0, "g", "g"])),
                     (1.0, basis_state(layout, [0, 1, "g", "g"]))])
    final = PureState(layout, dense_propagator(h, math.pi / 2) @ psi.amplitudes)
    targets, scalars = massless_absorption()
    expected = dense_partial_trace(final, ["tgt_l", "tgt_r"])
    assert np.max(np.abs(targets.matrix - expected)) < 1e-12
    assert abs(scalars["flying_occupation"]) < 1e-12


def test_absorption_is_bit_identical_to_evolve():
    # the Krylov step on the sum of the two sides' couplings is the closed
    # form's reference: the same targets and scalars, bit for bit
    layout = compose_layout([("tgt_l", TwoLevel), ("fly_l", BosonicMode(1)),
                             ("tgt_r", TwoLevel), ("fly_r", BosonicMode(1))])
    h = jc_hamiltonian(layout, "tgt_l", ("fly_l",)) + jc_hamiltonian(layout, "tgt_r", ("fly_r",))
    psi = superpose([(1.0, basis_state(layout, ["g", 1, "g", 0])),
                     (1.0, basis_state(layout, ["g", 0, "g", 1]))])
    final = evolve(psi, h, math.pi / 2)
    transferred = superpose([(1.0, basis_state(layout, ["e", 0, "g", 0])),
                             (1.0, basis_state(layout, ["g", 0, "e", 0]))])
    n_fly = np.indices(layout.dims)[[1, 3]].sum(axis=0).ravel()
    expected = reduced_density(final, ["tgt_l", "tgt_r"])
    targets, scalars = massless_absorption()
    assert targets.matrix.tobytes() == expected.matrix.tobytes()
    assert scalars == {
        "concurrence": concurrence(expected),
        "transfer_overlap": abs(final.overlap(transferred)),
        "flying_occupation": float(np.sum(np.abs(final.amplitudes) ** 2 * n_fly)),
    }


def _big_sector_pair(layout):
    # |e,1,1,0,0,0,0> and |g,1,1,1,0,0,0>: joined by the coupling, of opposite
    # q parity, in the 35-state sector of three excitations
    return (int(np.ravel_multi_index((1, 1, 1, 0, 0, 0, 0), layout.dims)),
            int(np.ravel_multi_index((0, 1, 1, 1, 0, 0, 0), layout.dims)))


def _uncoupled_pair(layout):
    # |g,1,1,1,0,0,0> and |g,1,1,0,1,0,0>: in the same sector, but H couples
    # them in neither direction (both hold the target at g)
    return (int(np.ravel_multi_index((0, 1, 1, 1, 0, 0, 0), layout.dims)),
            int(np.ravel_multi_index((0, 1, 1, 0, 1, 0, 0), layout.dims)))


@pytest.mark.parametrize("value, pair", [
    pytest.param(1e-9j, _big_sector_pair, id="1e-09j"),
    pytest.param(complex(0.0, np.nan), _big_sector_pair, id="nanj"),
    pytest.param(1e-9j, _uncoupled_pair, id="1e-09j-unmatched"),
    pytest.param(complex(0.0, np.nan), _uncoupled_pair, id="nanj-unmatched"),
])
def test_chiral_path_refuses_non_hermitian_and_nan(value, pair):
    # an entry that H's conjugate transpose does not match, in the 35-state
    # sector: added to a coupled pair, where the mirror holds the conjugate
    # of the coupling alone, or at a pair H does not couple, where the entry
    # has no mirror; the triplets merged with their conjugate transpose keep
    # the difference either way
    layout, h = _collective_jc(6)
    row, col = pair(layout)
    h = h + LinearOp(layout, [row], [col], [value])
    with pytest.raises(ValueError, match="evolve requires a Hermitian Hamiltonian"):
        evolve(basis_state(layout, ["g"] + [0] * 6), h, 1.0)


def test_chiral_path_accepts_rounding_asymmetry():
    for pair in (_big_sector_pair, _uncoupled_pair):
        layout, h = _collective_jc(6)
        row, col = pair(layout)
        h = h + LinearOp(layout, [row], [col], [1e-13j])
        assert abs(np.linalg.norm(evolve(basis_state(layout, ["e"] + [1, 1, 0, 0, 0, 0]), h,
                                         1.0).amplitudes) - 1) < 1e-12


def test_krylov_step_adds_up_repeated_triplets():
    # (row, col) arrives as two triplets that add up to the conjugate of its
    # mirror, so H is Hermitian although neither triplet matches the mirror
    layout, h = _collective_jc(6)
    row, col = _big_sector_pair(layout)
    h = h + LinearOp(layout, [row, row, col], [col, col, row], [0.25j, 0.5j, -0.75j])
    psi = rand_pure_state(np.random.default_rng(4), layout)
    out = evolve(psi, h, 0.9)
    assert np.max(np.abs(out.amplitudes - dense_propagator(dense(h), 0.9) @ psi.amplitudes)) < 1e-12


def test_krylov_step_ends_on_a_lucky_breakdown(solver_calls):
    # the vacuum is a null vector of H: the first Lanczos coefficient of its
    # sector is exactly zero, the ten others hold no weight, and one substep
    # of 1 x 1 tridiagonals covers any time
    layout, h = _collective_jc(9)
    vacuum = basis_state(layout, ["g"] + [0] * 9)
    assert np.max(np.abs(evolve(vacuum, h, 1000.0).amplitudes - vacuum.amplitudes)) < 1e-15
    assert solver_calls == [((11, 1, 1), np.float64)]
    # a state symmetric in the modes holds two states or fewer in each of the
    # 11 sectors: one substep, whose recurrences break down after two vectors
    solver_calls.clear()
    amps = np.array([0.6, 0.8j])
    for _ in range(9):
        amps = np.kron(amps, np.array([1.0, 1.0]) / math.sqrt(2))
    psi = PureState(layout, amps)
    out = evolve(psi, h, 2.0)
    assert solver_calls == [((11, 2, 2), np.float64)]
    assert np.max(np.abs(out.amplitudes - dense_propagator(dense(h), 2.0) @ amps)) < 1e-12


def test_krylov_breakdown_does_not_grow_with_time(solver_calls):
    # a generic state of collective n = 9 touches ten distinct eigenvalues of
    # H or fewer in each sector, so each recurrence ends on a rounding-level
    # beta within ten vectors.  Stopped only when beta times the remaining
    # time was within the tolerance, the recurrences ran on over rounding
    # noise from t = 10, to all 30 vectors from t = 20
    layout, h = _collective_jc(9)
    psi = rand_pure_state(np.random.default_rng(9), layout)
    exact = dense_collective_jc(layout, "target", layout.labels[1:])
    evolve(psi, h, 1.0)
    width = max(shape[-1] for shape, _ in solver_calls)
    for t in (20.0, 50.0):
        solver_calls.clear()
        out = evolve(psi, h, t)
        assert max(shape[-1] for shape, _ in solver_calls) <= width
        assert np.max(np.abs(out.amplitudes - dense_propagator(exact, t) @ psi.amplitudes)) < 1e-12


def test_krylov_step_on_an_empty_hamiltonian(solver_calls):
    layout, _ = _collective_jc(6)
    h = LinearOp(layout, [], [], [])
    psi = rand_pure_state(np.random.default_rng(6), layout)
    assert np.max(np.abs(evolve(psi, h, 3.0).amplitudes - psi.amplitudes)) < 1e-15
    # H keeps every sector, and each of the eight breaks down at once
    assert solver_calls == [((8, 1, 1), np.float64)]


@pytest.mark.parametrize("kind", ["diagonal", "complex gauge", "cross-sector pair",
                                  "real entry at odd q-difference", "diagonal in a doublet"])
def test_non_bipartite_or_complex_gauge_h_takes_the_krylov_step(kind, solver_calls):
    # the closed-form doublets would need an H that conserves the excitation
    # number, has the real gauge, has no diagonal entry and has no sector
    # above two states; the Krylov step needs none of that and works on the
    # complex triplets as given.  In the 35-state sector, a diagonal entry joins a
    # state to its own parity and a real entry between states whose q
    # differs by one leaves no real gauge.  In the d = 6 JC, |g,0> <-> |e,2>
    # joins sectors 0 and 3 (in the real gauge: the entries are imaginary), a
    # real entry between |e,0> and |g,1> leaves no real gauge inside one
    # sector, and a diagonal entry (-0.0 among them) leaves a doublet's
    # diagonal nonzero
    if kind in ("diagonal", "complex gauge"):
        layout, h = _collective_jc(6)
        row, col = _big_sector_pair(layout)
    else:
        layout = compose_layout([("T", TwoLevel), ("m", BosonicMode(2))])
        h = jc_hamiltonian(layout, "T", ("m",))
        row, col = (0, 5) if kind == "cross-sector pair" else (3, 1)
    if kind == "diagonal":
        h = h + LinearOp(layout, [row], [row], [0.3])
    elif kind == "diagonal in a doublet":
        h = h + LinearOp(layout, [row, col], [row, col], [0.3, -0.0])
    elif kind == "cross-sector pair":
        h = h + LinearOp(layout, [row, col], [col, row], [0.25j, -0.25j])
    else:
        h = h + LinearOp(layout, [row, col], [col, row], [0.25, 0.25])
    psi = rand_pure_state(np.random.default_rng(3), layout)
    out = evolve(psi, h, 0.9)
    assert max(shape[-1] for shape, _ in solver_calls) <= dynamics._KRYLOV_DIM
    u = dense_propagator(dense(h), 0.9)
    assert np.max(np.abs(out.amplitudes - u @ psi.amplitudes)) < 1e-12
    assert np.max(np.abs(_evolved_columns(h, 0.9) - u)) < 1e-12


def test_collision_unitary_is_unitary_and_matches_dense_oracle():
    layout = compose_layout([("target", TwoLevel), ("ancilla", FermionicMode)])
    h = jc_hamiltonian(layout, "target", ("ancilla",))
    u = collision_unitary(2.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(layout.dim))) < 1e-12
    assert np.max(np.abs(u - dense_propagator(dense(h), 2.7))) < 1e-12


@pytest.mark.parametrize("t", [math.pi / 4, math.pi / 2, math.pi / 32, math.pi / 2048, 2.7])
def test_collision_unitary_is_bit_identical_to_evolve(t):
    layout = compose_layout([("target", TwoLevel), ("ancilla", FermionicMode)])
    h = jc_hamiltonian(layout, "target", ("ancilla",))
    columns = [evolve(basis_state(layout, levels), h, t).amplitudes
               for levels in np.ndindex(2, 2)]
    assert np.array_equal(collision_unitary(t), np.column_stack(columns))


@pytest.mark.parametrize("m", [1, 4])
def test_propagate_on_a_stack_matches_each_state_bit_for_bit(m):
    # a qubit beside a FermionicMode or a BosonicMode(3): pairs, and states alone
    rng = np.random.default_rng(m)
    for b in (np.ones(1), np.sqrt(np.arange(1.0, 4.0))):
        layout = _qubit_mode_layout(BosonicMode(b.size))
        for t in (0.3, -2.7, math.pi / 4):
            stack = rng.normal(size=(layout.dim, m)) + 1j * rng.normal(size=(layout.dim, m))
            columns = [dynamics._propagate(b, stack[:, j], t) for j in range(m)]
            out = dynamics._propagate(b, stack, t)
            assert out.shape == (layout.dim, m)
            assert out.tobytes() == np.column_stack(columns).tobytes()


@pytest.mark.parametrize("cutoff", [1, 3, 40])
def test_states_alone_in_their_sector_are_kept_bit_for_bit(cutoff):
    # |g,0> and |e,L> of a BosonicMode(L) field are alone in their sectors,
    # where H has no entry: evolve and the closed-form doublets return them
    # unchanged, alone and stacked
    layout = _qubit_mode_layout(BosonicMode(cutoff))
    h = jc_hamiltonian(layout, "T", ("m",))
    ends = [basis_state(layout, ["g", 0]), basis_state(layout, ["e", cutoff])]
    stack = np.column_stack([state.amplitudes for state in ends])
    b = np.sqrt(np.arange(1.0, cutoff + 1))
    for t in (0.3, -2.7, math.pi / 4):
        for state in ends:
            assert evolve(state, h, t).amplitudes.tobytes() == state.amplitudes.tobytes()
        assert dynamics._propagate(b, stack, t).tobytes() == stack.tobytes()


# ---------------------------------------------------------------------------
# the dense pair-mixing oracle
# ---------------------------------------------------------------------------

def _triple_layout(extra=()):
    subs = [("T", TwoLevel), ("fly", FermionicMode), ("anc", FermionicMode)]
    return compose_layout(subs + list(extra))


def test_mixing_at_zero_angle_is_identity():
    layout = _triple_layout()
    assert np.array_equal(dense_mixing(layout, "T", "fly", "anc", 0.0), np.eye(8))


def test_mixing_at_half_turn_swaps_occupation():
    layout = _triple_layout()
    u = dense_mixing(layout, "T", "fly", "anc", math.pi / 2)
    before = basis_state(layout, ["e", 1, 0])
    after = PureState(layout, u @ before.amplitudes)
    assert abs(abs(after.overlap(basis_state(layout, ["e", 0, 1]))) - 1) < 1e-14


def test_mixing_leaves_ground_qubit_alone():
    rng = np.random.default_rng(5)
    layout = _triple_layout()
    u = dense_mixing(layout, "T", "fly", "anc", 1.1)
    # arbitrary state supported on the qubit-ground subspace
    amps = np.zeros(8, dtype=complex)
    amps[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    assert np.allclose(u @ amps, amps, atol=1e-15)


def test_mixing_unitary_and_identity_outside_subspace():
    layout = _triple_layout(extra=[("spectator", BosonicMode(2))])
    theta = 0.7
    u = dense_mixing(layout, "T", "fly", "anc", theta)
    assert np.max(np.abs(u @ u.conj().T - np.eye(layout.dim))) < 1e-12
    # independent oracle built by decoding every basis index
    dims = layout.dims
    expected = np.eye(layout.dim, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    for idx in range(layout.dim):
        t, f, a, spec = np.unravel_index(idx, dims)
        if t == 1 and f == 1 and a == 0:
            partner = np.ravel_multi_index((1, 0, 1, spec), dims)
            expected[idx, idx] = c
            expected[partner, partner] = c
            expected[idx, partner] = -s
            expected[partner, idx] = s
    assert np.array_equal(u, expected)


def test_mixing_angle_range():
    # the closed range [0, pi] is accepted at both ends and the pair mixing runs
    for theta, expected in ((0.0, 0.0), (math.pi, 0.0)):
        _, c = protocols.massive_fermion_protocol((theta,))
        assert abs(c - expected) < 1e-12
    # just outside the range, the angle is refused before any mixing is done
    for bad in (-0.1, math.pi + 0.1, 4.0):
        with pytest.raises(ValueError):
            protocols.massive_fermion_protocol((bad,))


# ---------------------------------------------------------------------------
# collective-mode equivalence
# ---------------------------------------------------------------------------

def _dicke_oracle(n_modes, alpha, beta, strength, t):
    """Independent reference: qubit coupled to the symmetric occupation ladder."""
    d = n_modes + 1
    b = np.zeros((d, d), dtype=complex)
    for m in range(1, d):
        b[m - 1, m] = math.sqrt(m * (n_modes - m + 1) / n_modes)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    h = strength * (1j * np.kron(sp, b) - 1j * np.kron(sp.conj().T, b.conj().T))
    chi = np.array([math.sqrt(math.comb(n_modes, m)) / 2 ** (n_modes / 2) for m in range(d)])
    psi = np.kron([alpha, beta], chi).astype(complex)
    w, v = np.linalg.eigh(h)
    psi = (v * np.exp(-1j * w * t)) @ (v.conj().T @ psi)
    x = psi.reshape(2, d)
    return x @ x.conj().T


@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.1])
def test_collective_equivalence(n_modes, t):
    alpha, beta = 0.6, 0.8
    subs = [("T", TwoLevel)] + [(f"m{k}", FermionicMode) for k in range(n_modes)]
    layout = compose_layout(subs)
    target = superpose([(alpha, basis_state(compose_layout([("T", TwoLevel)]), ["g"])),
                        (beta, basis_state(compose_layout([("T", TwoLevel)]), ["e"]))])
    psi = target
    for k in range(n_modes):
        mode = compose_layout([(f"m{k}", FermionicMode)])
        psi = tensor(psi, superpose([(1, basis_state(mode, [0])), (1, basis_state(mode, [1]))]))
    h = jc_hamiltonian(layout, "T", tuple(f"m{k}" for k in range(n_modes)))
    final = evolve(psi, h, t)
    reduced = reduced_density(final, ["T"]).matrix
    oracle = _dicke_oracle(n_modes, alpha, beta, math.sqrt(n_modes), t)
    assert np.max(np.abs(reduced - oracle)) < 1e-10
