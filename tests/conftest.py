import math
import tracemalloc

import numpy as np

from modent import BosonicMode, FermionicMode, LinearOp, PureState, compose_layout


def rand_amplitude_pair(rng):
    """Haar-random normalized (alpha, beta)."""
    v = rng.normal(size=4)
    alpha = v[0] + 1j * v[1]
    beta = v[2] + 1j * v[3]
    n = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / n, beta / n


def rand_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_pure_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def rand_density_matrix(rng, n, rank=None):
    """Random mixed state from a Ginibre factor."""
    k = rank or n
    g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    m = g @ g.conj().T
    return m / np.trace(m)


def rand_pure_state(rng, layout) -> PureState:
    return PureState(layout, rand_pure_vector(rng, layout.dim))


def rand_hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (z + z.conj().T)


def single_qubit_layout(label="q"):
    from modent import TwoLevel
    return compose_layout([(label, TwoLevel)])


# ---------------------------------------------------------------------------
# dense views of triplet operators (the library never forms them)
# ---------------------------------------------------------------------------

def dense(op):
    """The d x d matrix of a LinearOp; repeated triplets add up."""
    m = np.zeros((op.layout.dim, op.layout.dim), dtype=complex)
    np.add.at(m, (op.rows, op.cols), op.values)
    return m


def linear_op(layout, matrix):
    """LinearOp holding the nonzero entries of a dense matrix."""
    m = np.asarray(matrix, dtype=complex)
    rows, cols = np.nonzero(m)
    return LinearOp(layout, rows, cols, m[rows, cols])


# ---------------------------------------------------------------------------
# dense oracles: the direct formulas the structured library code must match
# ---------------------------------------------------------------------------

def dense_embed(layout, local, targets):
    """local (x) identity by Kronecker product, permuted to the layout's order."""
    positions = [layout.position(lab) for lab in targets]
    dims = layout.dims
    rest = [i for i in range(len(dims)) if i not in positions]
    d_rest = int(np.prod([dims[i] for i in rest], initial=1))
    full = np.kron(np.asarray(local, dtype=complex), np.eye(d_rest, dtype=complex))
    order = positions + rest
    shape = tuple(dims[i] for i in order)
    inv = np.argsort(order)
    perm = tuple(inv) + tuple(inv + len(dims))
    return full.reshape(shape + shape).transpose(perm).reshape(layout.dim, layout.dim)


def dense_mixing(layout, qubit, flying, ancilla, theta):
    """Rotation [[cos, -sin], [sin, cos]] on the ordered subspace
    {|e,1,0>, |e,0,1>} of (qubit, flying mode, ancilla mode), identity
    elsewhere: the d x d matrix of one step of the pair-mixing protocol."""
    # local basis row-major over (qubit, flying, ancilla): |e,1,0> = 6, |e,0,1> = 5
    local = np.eye(8, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    local[6, 6] = local[5, 5] = c
    local[6, 5] = -s
    local[5, 6] = s
    return dense_embed(layout, local, [qubit, flying, ancilla])


# Raising operator of a two-level particle, basis (g, e): s+|g> = |e>.
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def annihilation(kind):
    """Annihilation matrix of a mode: sqrt(n) ladder for bosons, hard-core for fermions."""
    if isinstance(kind, BosonicMode):
        return np.diag(np.sqrt(np.arange(1, kind.dim, dtype=float)), k=1).astype(complex)
    if isinstance(kind, FermionicMode):
        return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    raise ValueError(f"no annihilation operator for subsystem kind {kind!r}")


def dense_collective_jc(layout, qubit, modes):
    """sum_k (i s+ a_k - i s- a_k^dag), J = 1, as a sum of dense products."""
    sp = dense_embed(layout, SIGMA_PLUS, [qubit])
    h = np.zeros((layout.dim, layout.dim), dtype=complex)
    for m in modes:
        h += 1j * (sp @ dense_embed(layout, annihilation(layout.kind_of(m)), [m]))
    return h + h.conj().T


def dense_partial_trace(psi, keep):
    """Trace the full projector |psi><psi| over every subsystem not in ``keep``;
    the result is ordered row-major over ``keep`` as given."""
    dims = psi.layout.dims
    n = len(dims)
    positions = [psi.layout.position(lab) for lab in keep]
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj()).reshape(dims + dims)
    # one shared einsum axis per traced subsystem, a separate pair per kept one
    cols = [n + i if i in positions else i for i in range(n)]
    kept = positions + [cols[p] for p in positions]
    d_keep = int(np.prod([dims[p] for p in positions]))
    return np.einsum(rho, list(range(n)) + cols, kept).reshape(d_keep, d_keep)


def dense_propagator(h, t):
    """exp(-i H t) from one eigendecomposition of the whole matrix."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def pair_protocol_state(n_pairs):
    """Layout and initial state of the massive-fermion protocol, composed
    explicitly: (|eg,10> + |ge,01>)/sqrt(2) on (tgt_l, tgt_r, fly_l, fly_r),
    then one (|10> + |01>)/sqrt(2) per ancilla pair (anc{j}_l, anc{j}_r)."""
    from modent import FermionicMode, TwoLevel, basis_state, superpose, tensor
    core = compose_layout([("tgt_l", TwoLevel), ("tgt_r", TwoLevel),
                           ("fly_l", FermionicMode), ("fly_r", FermionicMode)])
    psi = superpose([(1.0, basis_state(core, ["e", "g", 1, 0])),
                     (1.0, basis_state(core, ["g", "e", 0, 1]))])
    for j in range(1, n_pairs + 1):
        pair = compose_layout([(f"anc{j}_l", FermionicMode), (f"anc{j}_r", FermionicMode)])
        psi = tensor(psi, superpose([(1.0, basis_state(pair, [1, 0])),
                                     (1.0, basis_state(pair, [0, 1]))]))
    return psi.layout, psi.amplitudes


def collision_unitary(t):
    """exp(-i H t) of one target-ancilla collision, one doublet of coupling 1,
    as ``protocols._collision_channel`` builds it; column j is U|j>."""
    from modent.dynamics import _propagate
    return _propagate(np.ones(1), np.eye(4, dtype=complex), t)


def kron_rotation_step(rho, u):
    """One ancilla collision by ``np.kron`` and ``einsum``: the direct form of
    one column of ``protocols._collision_channel`` (target (x) ancilla in
    (|0>+|1>)/sqrt(2), the collision unitary ``u``, then the ancilla traced
    out), on a whole 2x2 ``rho``."""
    joint = np.kron(np.asarray(rho, dtype=complex), 0.5 * np.ones((2, 2), dtype=complex))
    return np.einsum("ikjk->ij", (u @ joint @ u.conj().T).reshape(2, 2, 2, 2))


def pointwise_optimize_angles(n_pairs, grid_points, refine_rounds):
    """``protocols.optimize_angles`` one point at a time: each point's reduced
    targets validated as a ``DensityOp`` and passed to ``concurrence`` alone,
    then compared with the incumbent in product order."""
    import itertools

    from modent import DensityOp, concurrence
    from modent.entanglement import TWO_TARGETS
    from modent.protocols import _reduced_targets

    axes = [np.linspace(0.0, math.pi, grid_points)] * n_pairs
    step = math.pi / (grid_points - 1)
    best_c, best_t, grid_rows = -1.0, None, None
    for _ in range(refine_rounds + 1):
        rows = []
        for combo in itertools.product(*axes):
            angles = tuple(float(t) for t in combo)
            c = concurrence(DensityOp(TWO_TARGETS, _reduced_targets([angles])[0]))
            rows.append(angles + (c,))
            if c > best_c or (c == best_c and angles < best_t):
                best_c, best_t = c, angles
        if grid_rows is None:
            grid_rows = rows
        step /= 2.0
        axes = [sorted({min(math.pi, max(0.0, t + k * step)) for k in range(-2, 3)})
                for t in best_t]
    return best_t, best_c, grid_rows


def traced_peak(f, *args):
    """The peak of the memory that tracemalloc traces while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
