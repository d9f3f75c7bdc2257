import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    annihilation,
    dense,
    dense_collective_jc,
    dense_embed,
    dense_mixing,
    dense_propagator,
    linear_op,
    rand_hermitian,
    rand_pure_state,
)
from modent import (
    BosonicMode,
    CouplingSpec,
    FermionicMode,
    LinearOp,
    PureState,
    TwoLevel,
    basis_state,
    compose_layout,
    evolve,
    jc_hamiltonian,
    reduced_density,
    superpose,
    tensor,
)
from modent import dynamics, protocols
from modent.protocols import (
    RotationProtocolParams,
    coherent_field_rotation,
    massless_absorption,
    sequential_rotation,
    simultaneous_coupling_check,
    single_ancilla_rotation,
)


def _qubit_mode_layout(kind=FermionicMode):
    return compose_layout([("T", TwoLevel), ("m", kind)])


# ---------------------------------------------------------------------------
# exchange Hamiltonian
# ---------------------------------------------------------------------------

def test_jc_block_on_single_excitation_subspace():
    layout = _qubit_mode_layout()
    h = dense(jc_hamiltonian(layout, CouplingSpec("T", ("m",))))
    # ordered basis {|g>|1>, |e>|0>}: indices 1 and 2 (T slowest)
    block = h[np.ix_([1, 2], [1, 2])]
    assert np.allclose(block, [[0, -1j], [1j, 0]], atol=1e-15)


def test_jc_vacuum_is_dark():
    layout = _qubit_mode_layout()
    h = dense(jc_hamiltonian(layout, CouplingSpec("T", ("m",))))
    assert np.all(h[0, :] == 0)
    assert np.all(h[:, 0] == 0)


def test_jc_exactly_hermitian():
    for kind in (FermionicMode, BosonicMode(3)):
        layout = _qubit_mode_layout(kind)
        h = dense(jc_hamiltonian(layout, CouplingSpec("T", ("m",), strength_J=2.5)))
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_jc_kind_validation():
    layout = compose_layout([("T", TwoLevel), ("m", FermionicMode)])
    with pytest.raises(ValueError, match="TwoLevel"):
        jc_hamiltonian(layout, CouplingSpec("m", ("T",)))
    with pytest.raises(KeyError):
        jc_hamiltonian(layout, CouplingSpec("T", ("absent",)))


def test_jc_commutes_with_excitation_number():
    for kind in (FermionicMode, BosonicMode(3)):
        layout = _qubit_mode_layout(kind)
        h = dense(jc_hamiltonian(layout, CouplingSpec("T", ("m",))))
        excite = dense_embed(layout, np.diag([0.0, 1.0]), ["T"])
        a = annihilation(layout.kind_of("m"))
        occupy = dense_embed(layout, a.conj().T @ a, ["m"])
        total = excite + occupy
        assert np.max(np.abs(h @ total - total @ h)) < 1e-12


def test_collective_single_mode_reduces_to_jc():
    layout = compose_layout([("T", TwoLevel), ("m0", BosonicMode(2)), ("m1", FermionicMode)])
    both = jc_hamiltonian(layout, CouplingSpec("T", ("m0", "m1")))
    terms = (jc_hamiltonian(layout, CouplingSpec("T", ("m0",)))
             + jc_hamiltonian(layout, CouplingSpec("T", ("m1",))))
    assert np.array_equal(dense(both), dense(terms))


def test_collective_two_modes_spreads_excitation_evenly():
    layout = compose_layout([("T", TwoLevel), ("m0", FermionicMode), ("m1", FermionicMode)])
    h = jc_hamiltonian(layout, CouplingSpec("T", ("m0", "m1")))
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
def _coupled_layouts(draw):
    """A qubit and 1-4 fermionic or bosonic modes in random order, coupled to
    a random non-empty subset of the modes (the rest are spectators)."""
    kinds = draw(st.lists(st.sampled_from([FermionicMode(), BosonicMode(1), BosonicMode(2)]),
                          min_size=1, max_size=4))
    modes = [f"m{k}" for k in range(len(kinds))]
    layout = compose_layout(draw(st.permutations([("T", TwoLevel())] + list(zip(modes, kinds)))))
    coupled = draw(st.lists(st.sampled_from(modes), min_size=1, unique=True))
    strength = draw(st.floats(0.1, 3.0))
    return layout, CouplingSpec("T", tuple(coupled), strength)


@given(_coupled_layouts())
@settings(max_examples=60, deadline=None)
def test_collective_matches_dense_sum_oracle(case):
    layout, spec = case
    assert np.array_equal(dense(jc_hamiltonian(layout, spec)),
                          dense_collective_jc(layout, spec))


@st.composite
def _mixed_layouts(draw):
    """1-4 subsystems drawn from TwoLevel, FermionicMode and BosonicMode(1..3),
    plus the coupled qubit at a random position; every mode is coupled and
    the extra two-level particles are spectators."""
    kinds = draw(st.lists(st.sampled_from([TwoLevel(), FermionicMode(), BosonicMode(1),
                                           BosonicMode(2), BosonicMode(3)]),
                          min_size=1, max_size=4))
    subs = [(f"s{k}", kind) for k, kind in enumerate(kinds)]
    subs.insert(draw(st.integers(0, len(subs))), ("T", TwoLevel()))
    modes = tuple(lab for lab, kind in subs if not isinstance(kind, TwoLevel))
    layout = compose_layout(subs)
    if not modes:
        return layout, None
    return layout, CouplingSpec("T", modes, draw(st.floats(0.1, 3.0)))


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


@given(_mixed_layouts())
@settings(max_examples=80, deadline=None)
def test_sector_blocks_match_dense_oracle_bit_for_bit(case):
    layout, spec = case
    if spec is None:  # no mode to couple: H = 0, still split into sectors
        h = LinearOp(layout, [], [], [])
        oracle = np.zeros((layout.dim, layout.dim), dtype=complex)
    else:
        h = jc_hamiltonian(layout, spec)
        oracle = dense_collective_jc(layout, spec)
    gauged = _gauged(layout, oracle)
    assert np.all(gauged.imag == 0)
    phase, sectors = dynamics._sector_blocks(h)
    assert np.array_equal(phase, _gauge_phase(layout))
    covered = 0
    for idx, blocks in sectors:
        # the scatter sums from +0.0, so the oracle's signed zeros are made +0.0
        expected = gauged.real[idx[:, :, None], idx[:, None, :]] + 0.0
        assert blocks.dtype == np.float64
        assert blocks.flags.c_contiguous
        assert blocks.tobytes() == expected.tobytes()
        covered += idx.size
    assert covered == layout.dim


def test_sum_of_operators_densifies_to_dense_sum():
    layout = compose_layout([("T", TwoLevel), ("m0", BosonicMode(2)), ("m1", FermionicMode)])
    h = jc_hamiltonian(layout, CouplingSpec("T", ("m0", "m1"), 0.7))
    assert np.array_equal(dense(h + h), dense(h) + dense(h))
    # repeated triplets add up when the blocks are gathered, in the same gauge
    phase2, sectors2 = dynamics._sector_blocks(h + h)
    phase, sectors = dynamics._sector_blocks(h)
    assert np.array_equal(phase2, phase)
    for (idx2, twice), (idx, once) in zip(sectors2, sectors):
        assert np.array_equal(idx2, idx)
        assert twice.dtype == np.float64
        assert np.array_equal(twice, once + once)
    other = compose_layout([("T", TwoLevel), ("m1", FermionicMode), ("m0", BosonicMode(2))])
    with pytest.raises(ValueError, match="different layouts"):
        h + jc_hamiltonian(other, CouplingSpec("T", ("m0",)))


def test_one_cross_sector_triplet_gives_one_block(eigh_calls):
    layout = compose_layout([("T", TwoLevel), ("m", BosonicMode(2))])
    jc = jc_hamiltonian(layout, CouplingSpec("T", ("m",)))
    assert len(dynamics._sector_blocks(jc)[1]) == 2  # sectors of 1 and 2 states
    # |g,0> <-> |e,2> joins excitation sectors 0 and 3; a real entry between
    # states whose q differs by one has no real gauge, so H stays complex
    h = jc + LinearOp(layout, [0, 5], [5, 0], [0.25, 0.25])
    phase, ((idx, blocks),) = dynamics._sector_blocks(h)
    assert np.array_equal(phase, np.ones(layout.dim))
    assert idx.shape == (1, layout.dim)
    assert blocks.dtype == np.complex128
    assert blocks[0].tobytes() == dense(h)[idx[0][:, None], idx[0]].tobytes()
    psi = basis_state(layout, ["g", 0])
    out = evolve(psi, h, 1.3)
    assert eigh_calls == [(layout.dim, np.complex128)]
    u = dense_propagator(dense(h), 1.3)
    assert np.max(np.abs(out.amplitudes - u @ psi.amplitudes)) < 1e-12
    assert np.max(np.abs(_evolved_columns(h, 1.3) - u)) < 1e-12


def test_coupling_spec_validation():
    with pytest.raises(ValueError, match="at least one"):
        CouplingSpec("T", ())
    with pytest.raises(ValueError, match="distinct"):
        CouplingSpec("T", ("T",))
    with pytest.raises(ValueError, match="positive"):
        CouplingSpec("T", ("m",), strength_J=0.0)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _evolved_columns(h, t):
    """exp(-i H t) assembled column by column from evolve on each basis state."""
    return np.column_stack([evolve(basis_state(h.layout, levels), h, t).amplitudes
                            for levels in np.ndindex(*h.layout.dims)])


def test_evolve_zero_time_is_identity():
    layout = _qubit_mode_layout()
    h = jc_hamiltonian(layout, CouplingSpec("T", ("m",)))
    psi = superpose([(1, basis_state(layout, ["g", 1])), (2, basis_state(layout, ["e", 0]))])
    out = evolve(psi, h, 0.0)
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-14


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_time_is_refused(t):
    layout = _qubit_mode_layout()
    h = jc_hamiltonian(layout, CouplingSpec("T", ("m",)))
    with pytest.raises(ValueError, match="evolution time"):
        evolve(basis_state(layout, ["e", 0]), h, t)
    with pytest.raises(ValueError, match=r"evolution time .* is not finite"):
        protocols._collision_unitary(t)


def test_evolve_full_absorption():
    layout = compose_layout([("m", FermionicMode), ("T", TwoLevel)])
    h = jc_hamiltonian(layout, CouplingSpec("T", ("m",)))
    occupied_ground = basis_state(layout, [1, "g"])
    out = evolve(occupied_ground, h, math.pi / 2)
    empty_excited = basis_state(layout, [0, "e"])
    assert abs(abs(out.overlap(empty_excited)) - 1) < 1e-12


def test_evolve_half_absorption_is_balanced():
    layout = compose_layout([("m", FermionicMode), ("T", TwoLevel)])
    h = jc_hamiltonian(layout, CouplingSpec("T", ("m",)))
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


@given(_coupled_layouts(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 5.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_evolve_matches_dense_oracle(case, seed, t, random_h):
    # JC Hamiltonians split into excitation sectors; a random Hermitian H
    # couples them all and is propagated as one block
    layout, spec = case
    rng = np.random.default_rng(seed)
    h = (linear_op(layout, rand_hermitian(rng, layout.dim)) if random_h
         else jc_hamiltonian(layout, spec))
    # a random complex H has no real gauge; its blocks stay complex
    expected = np.complex128 if random_h else np.float64
    assert all(b.dtype == expected for _, b in dynamics._sector_blocks(h)[1])
    u = dense_propagator(dense(h), t)
    assert np.max(np.abs(_evolved_columns(h, t) - u)) < 1e-12
    psi = rand_pure_state(rng, layout)
    assert np.max(np.abs(evolve(psi, h, t).amplitudes - u @ psi.amplitudes)) < 1e-12


@st.composite
def _gauge_real_hamiltonians(draw):
    """A Hermitian H with a real gauge: either a sum of couplings of 1-2 qubits,
    each mode coupled to one of them, or D S D^dag for a random real symmetric
    S that couples every sector."""
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
        spec = CouplingSpec(f"T{k % n_qubits}", (label,), draw(st.floats(0.1, 3.0)))
        term = jc_hamiltonian(layout, spec)
        h = term if h is None else h + term
    return layout, h


@given(_gauge_real_hamiltonians(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_real_path_matches_dense_oracle(case, seed, t):
    layout, h = case
    assert all(b.dtype == np.float64 for _, b in dynamics._sector_blocks(h)[1])
    u = dense_propagator(dense(h), t)
    assert np.max(np.abs(_evolved_columns(h, t) - u)) < 1e-12
    psi = rand_pure_state(np.random.default_rng(seed), layout)
    assert np.max(np.abs(evolve(psi, h, t).amplitudes - u @ psi.amplitudes)) < 1e-12


@pytest.fixture
def eigh_calls(monkeypatch):
    """Records (matrix size, dtype) of every eigh call the dynamics module makes."""
    calls = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        # np.linalg is shared: skip the calls of the other modules
        if sys._getframe(1).f_globals["__name__"] == dynamics.__name__:
            calls.append((np.shape(a)[-1], np.asarray(a).dtype))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(dynamics.np.linalg, "eigh", recording_eigh)
    return calls


def test_propagation_diagonalizes_sectors_not_the_whole_space(eigh_calls):
    simultaneous_coupling_check(9)  # dimension 1024, sectors C(10, k)
    assert max(size for size, _ in eigh_calls) == 252
    eigh_calls.clear()
    coherent_field_rotation(1.0, 0.0, 20.0)  # dimension 1162, sectors of 2
    assert max(size for size, _ in eigh_calls) == 2


def test_every_production_hamiltonian_reaches_eigh_real(eigh_calls):
    # fermionic and bosonic jc_hamiltonian over several modes,
    # collective_mode_reference and the massless-absorption sum over two targets
    simultaneous_coupling_check(3)
    coherent_field_rotation(0.6, 0.8, 4.0)
    massless_absorption()
    assert eigh_calls
    assert {dtype for _, dtype in eigh_calls} == {np.dtype(np.float64)}
    # the collision of the sequential rotation is diagonalized at import, out
    # of the fixture's sight, so its eigenvectors are checked instead
    _, sectors = protocols._COLLISION_SPECTRUM
    assert {v.dtype for _, _, v in sectors} == {np.dtype(np.float64)}


def test_rotation_protocols_diagonalize_nothing(eigh_calls):
    sequential_rotation(RotationProtocolParams(0.8, 0.6, 64))
    single_ancilla_rotation(0.8, 0.6)
    assert eigh_calls == []


def test_evolve_rejects_non_hermitian():
    layout = compose_layout([("T", TwoLevel)])
    h = linear_op(layout, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(basis_state(layout, ["g"]), h, 1.0)


def _jc_with_in_sector_asymmetry(eps):
    # |e,0> <- |g,1> lies inside the one-excitation sector, so H stays split
    layout = compose_layout([("T", TwoLevel), ("m", BosonicMode(2))])
    h = dense(jc_hamiltonian(layout, CouplingSpec("T", ("m",)))).copy()
    h[3, 1] += eps
    return basis_state(layout, ["e", 0]), linear_op(layout, h)


@pytest.mark.parametrize("eps", [1e-9, np.nan])
def test_evolve_rejects_non_hermitian_sector_block(eps):
    psi, h = _jc_with_in_sector_asymmetry(eps)
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(psi, h, 1.0)


def test_hermiticity_tolerance_accepts_rounding_asymmetry(eigh_calls):
    psi, h = _jc_with_in_sector_asymmetry(1e-13)
    assert abs(np.linalg.norm(evolve(psi, h, 1.0).amplitudes) - 1) < 1e-12
    # checked and diagonalized block by block
    assert max(size for size, _ in eigh_calls) == 2


@pytest.mark.parametrize("extra", [(3, 1, 1e-9j), (3, 3, np.nan)])
def test_real_path_refuses_non_hermitian_and_nan(extra):
    # i 1e-9 at (|e,0>, |g,1>) and a NaN on the diagonal both gauge real, so
    # the blocks are float64 and the check runs on them
    layout = compose_layout([("T", TwoLevel), ("m", BosonicMode(2))])
    row, col, value = extra
    h = jc_hamiltonian(layout, CouplingSpec("T", ("m",))) + LinearOp(layout, [row], [col], [value])
    assert all(b.dtype == np.float64 for _, b in dynamics._sector_blocks(h)[1])
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(basis_state(layout, ["e", 0]), h, 1.0)


def test_hermiticity_check_holds_one_temporary_at_most():
    # collective n = 10: the blocks and their eigenvectors take 2 x 5.4 MiB;
    # a check that kept both the difference and its modulus alive added a
    # full extra group (3.3 MiB) on top of them
    import tracemalloc

    modes = tuple(f"mode{k}" for k in range(10))
    layout = compose_layout([("target", TwoLevel)] + [(m, FermionicMode) for m in modes])
    h = jc_hamiltonian(layout, CouplingSpec("target", modes))
    groups = [blocks.nbytes for _, blocks in dynamics._sector_blocks(h)[1]]
    tracemalloc.start()
    try:
        dynamics._sector_eigh(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(groups) + 0.5 * max(groups)


def test_collision_unitary_is_unitary_and_matches_dense_oracle():
    layout = compose_layout([("target", TwoLevel), ("ancilla", FermionicMode)])
    h = jc_hamiltonian(layout, CouplingSpec("target", ("ancilla",)))
    u = protocols._collision_unitary(2.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(layout.dim))) < 1e-12
    assert np.max(np.abs(u - dense_propagator(dense(h), 2.7))) < 1e-12


@pytest.mark.parametrize("t", [math.pi / 4, math.pi / 2, math.pi / 32, math.pi / 2048, 2.7])
def test_collision_unitary_is_bit_identical_to_evolve(t):
    layout = compose_layout([("target", TwoLevel), ("ancilla", FermionicMode)])
    h = jc_hamiltonian(layout, CouplingSpec("target", ("ancilla",)))
    columns = [evolve(basis_state(layout, levels), h, t).amplitudes
               for levels in np.ndindex(2, 2)]
    assert np.array_equal(protocols._collision_unitary(t), np.column_stack(columns))


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
        params = protocols.FermionProtocolParams(1, (theta,))
        _, c = protocols.massive_fermion_protocol(params)
        assert abs(c - expected) < 1e-12
    # just outside the range, the angle is refused before any mixing is done
    for bad in (-0.1, math.pi + 0.1, 4.0):
        with pytest.raises(ValueError):
            protocols.FermionProtocolParams(1, (bad,))


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
    h = jc_hamiltonian(layout, CouplingSpec("T", tuple(f"m{k}" for k in range(n_modes))))
    final = evolve(psi, h, t)
    reduced = reduced_density(final, ["T"]).matrix
    oracle = _dicke_oracle(n_modes, alpha, beta, math.sqrt(n_modes), t)
    assert np.max(np.abs(reduced - oracle)) < 1e-10
