import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    annihilation,
    dense,
    dense_collective_jc,
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
    MixingAngle,
    PureState,
    TwoLevel,
    basis_state,
    collective_jc_hamiltonian,
    compose_layout,
    controlled_mixing_unitary,
    embed_operator,
    evolve,
    jc_hamiltonian,
    propagator,
    reduced_density,
    superpose,
    tensor,
)
from modent import dynamics
from modent.protocols import coherent_field_rotation, simultaneous_coupling_check


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
    with pytest.raises(ValueError, match="exactly one"):
        jc_hamiltonian(layout, CouplingSpec("T", ("m", "m2")))


def test_jc_commutes_with_excitation_number():
    for kind in (FermionicMode, BosonicMode(3)):
        layout = _qubit_mode_layout(kind)
        h = dense(jc_hamiltonian(layout, CouplingSpec("T", ("m",))))
        excite = dense(embed_operator(layout, np.diag([0.0, 1.0]), ["T"]))
        a = annihilation(layout.kind_of("m"))
        occupy = dense(embed_operator(layout, a.conj().T @ a, ["m"]))
        total = excite + occupy
        assert np.max(np.abs(h @ total - total @ h)) < 1e-12


def test_collective_single_mode_reduces_to_jc():
    layout = _qubit_mode_layout()
    spec = CouplingSpec("T", ("m",))
    assert np.array_equal(dense(collective_jc_hamiltonian(layout, spec)),
                          dense(jc_hamiltonian(layout, spec)))


def test_collective_two_modes_spreads_excitation_evenly():
    layout = compose_layout([("T", TwoLevel), ("m0", FermionicMode), ("m1", FermionicMode)])
    h = collective_jc_hamiltonian(layout, CouplingSpec("T", ("m0", "m1")))
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
    assert np.array_equal(dense(collective_jc_hamiltonian(layout, spec)),
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


@given(_mixed_layouts())
@settings(max_examples=80, deadline=None)
def test_sector_blocks_match_dense_oracle_bit_for_bit(case):
    layout, spec = case
    if spec is None:  # no mode to couple: H = 0, still split into sectors
        h = LinearOp(layout, [], [], [])
        oracle = np.zeros((layout.dim, layout.dim), dtype=complex)
    else:
        h = collective_jc_hamiltonian(layout, spec)
        oracle = dense_collective_jc(layout, spec)
    covered = 0
    for idx, blocks in dynamics._sector_blocks(h):
        expected = oracle[idx[:, :, None], idx[:, None, :]]
        assert blocks.flags.c_contiguous
        assert blocks.tobytes() == expected.tobytes()
        covered += idx.size
    assert covered == layout.dim


def test_sum_of_operators_densifies_to_dense_sum():
    layout = compose_layout([("T", TwoLevel), ("m0", BosonicMode(2)), ("m1", FermionicMode)])
    h = collective_jc_hamiltonian(layout, CouplingSpec("T", ("m0", "m1"), 0.7))
    assert np.array_equal(dense(h + h), dense(h) + dense(h))
    # repeated triplets add up when the blocks are gathered
    for (idx2, twice), (idx, once) in zip(dynamics._sector_blocks(h + h),
                                          dynamics._sector_blocks(h)):
        assert np.array_equal(idx2, idx)
        assert np.array_equal(twice, once + once)
    other = compose_layout([("T", TwoLevel), ("m1", FermionicMode), ("m0", BosonicMode(2))])
    with pytest.raises(ValueError, match="different layouts"):
        h + collective_jc_hamiltonian(other, CouplingSpec("T", ("m0",)))


def test_one_cross_sector_triplet_gives_one_block(eigh_sizes):
    layout = compose_layout([("T", TwoLevel), ("m", BosonicMode(2))])
    jc = jc_hamiltonian(layout, CouplingSpec("T", ("m",)))
    assert len(dynamics._sector_blocks(jc)) == 2  # sectors of 1 and 2 states
    # |g,0> <-> |e,2> joins excitation sectors 0 and 3
    h = jc + LinearOp(layout, [0, 5], [5, 0], [0.25, 0.25])
    (idx, blocks), = dynamics._sector_blocks(h)
    assert idx.shape == (1, layout.dim)
    assert np.array_equal(blocks[0], dense(h)[idx[0][:, None], idx[0]])
    psi = basis_state(layout, ["g", 0])
    out = evolve(psi, h, 1.3)
    assert eigh_sizes == [layout.dim]
    u = dense_propagator(dense(h), 1.3)
    assert np.max(np.abs(out.amplitudes - u @ psi.amplitudes)) < 1e-12


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

def test_evolve_zero_time_is_identity():
    layout = _qubit_mode_layout()
    h = jc_hamiltonian(layout, CouplingSpec("T", ("m",)))
    psi = superpose([(1, basis_state(layout, ["g", 1])), (2, basis_state(layout, ["e", 0]))])
    out = evolve(psi, h, 0.0)
    assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-14


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
def test_evolve_and_propagator_match_dense_oracle(case, seed, t, random_h):
    # JC Hamiltonians split into excitation sectors; a random Hermitian H
    # couples them all and is propagated as one block
    layout, spec = case
    rng = np.random.default_rng(seed)
    h = (linear_op(layout, rand_hermitian(rng, layout.dim)) if random_h
         else collective_jc_hamiltonian(layout, spec))
    u = dense_propagator(dense(h), t)
    assert np.max(np.abs(propagator(h, t) - u)) < 1e-12
    psi = rand_pure_state(rng, layout)
    assert np.max(np.abs(evolve(psi, h, t).amplitudes - u @ psi.amplitudes)) < 1e-12


@pytest.fixture
def eigh_sizes(monkeypatch):
    """Records the matrix size of every eigh call the dynamics module makes."""
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(dynamics.np.linalg, "eigh", recording_eigh)
    return sizes


def test_propagation_diagonalizes_sectors_not_the_whole_space(eigh_sizes):
    simultaneous_coupling_check(9)  # dimension 1024, sectors C(10, k)
    assert max(eigh_sizes) == 252
    eigh_sizes.clear()
    coherent_field_rotation(1.0, 0.0, 20.0)  # dimension 1162, sectors of 2
    assert max(eigh_sizes) == 2


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
    with pytest.raises(ValueError, match="Hermitian"):
        propagator(h, 1.0)


def test_hermiticity_tolerance_accepts_rounding_asymmetry(eigh_sizes):
    psi, h = _jc_with_in_sector_asymmetry(1e-13)
    assert abs(np.linalg.norm(evolve(psi, h, 1.0).amplitudes) - 1) < 1e-12
    assert max(eigh_sizes) == 2  # checked and diagonalized block by block


def test_propagator_is_unitary():
    rng = np.random.default_rng(17)
    layout = compose_layout([("a", TwoLevel), ("b", BosonicMode(3))])
    h = linear_op(layout, rand_hermitian(rng, layout.dim))
    u = propagator(h, 2.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(layout.dim))) < 1e-12


# ---------------------------------------------------------------------------
# controlled mixing unitary
# ---------------------------------------------------------------------------

def _triple_layout(extra=()):
    subs = [("T", TwoLevel), ("fly", FermionicMode), ("anc", FermionicMode)]
    return compose_layout(subs + list(extra))


def test_mixing_at_zero_angle_is_identity():
    layout = _triple_layout()
    u = controlled_mixing_unitary(layout, "T", "fly", "anc", 0.0)
    assert np.array_equal(dense(u), np.eye(8))


def test_mixing_at_half_turn_swaps_occupation():
    layout = _triple_layout()
    u = controlled_mixing_unitary(layout, "T", "fly", "anc", math.pi / 2)
    before = basis_state(layout, ["e", 1, 0])
    after = PureState(layout, dense(u) @ before.amplitudes)
    assert abs(abs(after.overlap(basis_state(layout, ["e", 0, 1]))) - 1) < 1e-14


def test_mixing_leaves_ground_qubit_alone():
    rng = np.random.default_rng(5)
    layout = _triple_layout()
    u = controlled_mixing_unitary(layout, "T", "fly", "anc", 1.1)
    # arbitrary state supported on the qubit-ground subspace
    amps = np.zeros(8, dtype=complex)
    amps[:4] = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    assert np.allclose(dense(u) @ amps, amps, atol=1e-15)


def test_mixing_unitary_and_identity_outside_subspace():
    layout = _triple_layout(extra=[("spectator", BosonicMode(2))])
    theta = 0.7
    u = dense(controlled_mixing_unitary(layout, "T", "fly", "anc", theta))
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


def test_mixing_requires_fermionic_modes():
    layout = compose_layout([("T", TwoLevel), ("fly", BosonicMode(1)), ("anc", FermionicMode)])
    with pytest.raises(ValueError, match="FermionicMode"):
        controlled_mixing_unitary(layout, "T", "fly", "anc", 0.3)


def test_mixing_angle_range():
    with pytest.raises(ValueError):
        MixingAngle(-0.1)
    with pytest.raises(ValueError):
        MixingAngle(math.pi + 0.1)
    layout = _triple_layout()
    with pytest.raises(ValueError):
        controlled_mixing_unitary(layout, "T", "fly", "anc", 4.0)


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
    h = collective_jc_hamiltonian(layout, CouplingSpec("T", tuple(f"m{k}" for k in range(n_modes))))
    final = evolve(psi, h, t)
    reduced = reduced_density(final, ["T"]).matrix
    oracle = _dicke_oracle(n_modes, alpha, beta, math.sqrt(n_modes), t)
    assert np.max(np.abs(reduced - oracle)) < 1e-10
