"""Excitation-exchange Hamiltonians and their exact time evolution.

Units: hbar = 1 and the default coupling strength is J = 1, so all times are
expressed in units of 1/J.  Hamiltonians are ``LinearOp`` triplets built from
the nonzeros of each coupling; no d x d array is formed.  Time evolution is
exact: the Hamiltonian is eigendecomposed one excitation sector at a time.
The excitation number of a basis state is the sum of its level indices; every
coupling built here conserves it, so H is block diagonal over the sectors and
each block is scattered straight from the triplets and diagonalized on its
own (equal-size blocks in one batched ``eigh``).  A Hamiltonian that couples
two sectors is diagonalized as one block.

The blocks are made real where the data allow it.  Every coupling built here
is i J sqrt(n) times a real ladder between states whose two-level indices sum
to q + 1 and q, so with D = diag(i^q) the gauged H' = D^dag H D is real
symmetric, and exp(-i H t) = D exp(-i H' t) D^dag.  The gauge is exact: each
entry of H' and each amplitude is turned by a power of i, which only swaps
and negates its real and imaginary parts.  When some entry of H' keeps a
nonzero imaginary part, D = 1 and the blocks stay complex.  Either way it is
one path, and ``eigh`` picks the real or the complex solver from the dtype.

Large real blocks are split by chirality.  Each coupling term changes q by
one, so when every entry of H' joins states of opposite q parity, a sector's
block is H' = [[0, A], [A^T, 0]] over its two parity classes, x (p states)
and y (r <= p states).  Only A is scattered (with its mirror, for the
Hermiticity check), and one batched thin SVD A = U diag(s) W^T, on a matrix
of at most half the side of the block, gives exp(-i H' t): H' turns each
pair (u_k, w_k) into the other, times s_k, so
y' = W (cos(t s) W^T y - i sin(t s) U^T x) and
x' = x + U ((cos(t s) - 1) U^T x - i sin(t s) W^T y).  That is a quarter of
the block memory, and the step stays unitary for any t whatever the rounding
in s (a Gram matrix A^T A would square it, and the rounding of the null
vectors of a rank-deficient A would leak norm in proportion to t^2); the
real U and W act on the real and imaginary parts of the amplitudes through a
float view.  Sectors of at most ``_CHIRAL_CROSSOVER`` states, a Hamiltonian
with an entry inside one parity class (a diagonal term, say) and one with no
real gauge keep whole blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    HERMITICITY_TOL,
    BosonicMode,
    FermionicMode,
    LinearOp,
    PureState,
    SystemLayout,
    TwoLevel,
    embed_triplets,
)


@dataclass(frozen=True)
class CouplingSpec:
    """A two-level particle exchanging excitations with one or more field modes."""

    qubit_label: str
    mode_labels: tuple
    strength_J: float = 1.0

    def __post_init__(self):
        modes = tuple(str(m) for m in self.mode_labels)
        if not modes:
            raise ValueError("coupling needs at least one mode")
        labels = (self.qubit_label,) + modes
        if len(set(labels)) != len(labels):
            raise ValueError(f"coupling labels must be distinct, got {labels}")
        if not self.strength_J > 0:
            raise ValueError(f"coupling strength must be positive, got {self.strength_J}")
        object.__setattr__(self, "mode_labels", modes)


def _check_coupling_kinds(layout: SystemLayout, spec: CouplingSpec):
    if not isinstance(layout.kind_of(spec.qubit_label), TwoLevel):
        raise ValueError(f"subsystem {spec.qubit_label!r} must be TwoLevel")
    for m in spec.mode_labels:
        if not isinstance(layout.kind_of(m), (BosonicMode, FermionicMode)):
            raise ValueError(f"subsystem {m!r} must be a bosonic or fermionic mode")


def jc_hamiltonian(layout: SystemLayout, spec: CouplingSpec) -> LinearOp:
    """J * sum_k (i s+ a_k - i s- a_k^dag) over the spec's modes, embedded in the layout.

    Hermitian by construction; conserves the total excitation number
    (qubit excitation plus mode occupations).  With s+|g> = |e>, each mode
    contributes the ladder's nonzeros only: i J sqrt(n) at row (e, n-1),
    column (g, n) of the local (qubit, mode) basis, plus the conjugate
    transpose.
    """
    _check_coupling_kinds(layout, spec)
    h = None
    for m in spec.mode_labels:
        # <n-1| a |n> = sqrt(n) for n = 1 .. n_max; a hard-core fermion has n_max = 1
        n = np.arange(1, layout.kind_of(m).dim)
        values = 1j * (spec.strength_J * np.sqrt(n))
        excited = n.size + n   # (e, n-1): the qubit's stride is n_max + 1
        term = embed_triplets(layout, np.concatenate([excited, n]), np.concatenate([n, excited]),
                              np.concatenate([values, values.conj()]), [spec.qubit_label, m])
        h = term if h is None else h + term
    return h


# i^k, and the sign of the real part of i^k (a + ib) taken from a or b, for k = 0 .. 3
_POWERS_OF_I = np.array([1, 1j, -1, -1j])
_REAL_SIGN = np.array([1.0, -1.0, -1.0, 1.0])

# Sectors of more states than this take the chiral path when H allows it.
# Per group of two balanced sectors (check, decomposition and one
# propagation, best of seven on a shared 2-CPU host) whole blocks took 63
# against 67 us chiral at 12 states, 97 against 82 us at 16, 139 against
# 87 us at 20, 208 against 103 us at 24 and 288 against 152 us at 32.  The
# split pays from about 16 states; 20 keeps every sector of collective-check
# n <= 5 (at most 20 states), of the one-mode couplings and of the golden
# outputs on whole blocks, so their printed digits do not move.
_CHIRAL_CROSSOVER = 20


def _sector_blocks(hamiltonian: LinearOp):
    """The blocks of H over the excitation sectors it leaves uncoupled, in the
    gauge that makes them real when one exists.

    Returns ``(phase, sectors)``.  ``phase`` (d,) is the diagonal of the gauge
    D: i^q, with q the sum of a basis state's two-level indices, if every entry
    of D^dag H D has an exactly zero imaginary part, and 1 otherwise.
    ``sectors`` holds ``(idx, blocks)`` per sector size: ``idx`` (k, s) the
    global basis indices of the k sectors of size s, and ``blocks`` (k, s, s)
    the entries of D^dag H D among them, float64 in the real gauge and complex
    otherwise, scattered from the triplets (repeated entries add up in triplet
    order).  If any triplet joins two sectors the whole basis is one block.
    The gauge is exact: a power of i only swaps and negates the real and
    imaginary parts of an entry, so the real blocks hold D^dag H D without
    rounding.

    When the gauge is real and every triplet joins states of opposite q
    parity, each sector of more than ``_CHIRAL_CROSSOVER`` states that holds
    both parities is returned as ``(x, y, upper, lower)`` instead, grouped by
    shape: ``x`` (k, p) the indices of its larger parity class (the even one
    on a tie), ``y`` (k, r) the other, r <= p, ``upper`` (k, p, r) the entries
    of D^dag H D at rows ``x`` and columns ``y``, and ``lower`` (k, r, p) those
    at rows ``y`` and columns ``x``; the blocks among ``x`` and among ``y`` are
    zero and are not formed.
    """
    layout = hamiltonian.layout
    rows, cols, values = hamiltonian.rows, hamiltonian.cols, hamiltonian.values
    levels = np.indices(layout.dims).reshape(len(layout.dims), -1)
    # excitation number of each basis state: the sum of its level indices
    sector = levels.sum(axis=0)
    q = levels[[i for i, (_, kind) in enumerate(layout.subsystems)
                if isinstance(kind, TwoLevel)]].sum(axis=0)
    # entry (r, c) of D^dag H D is i^k H[r, c] with k = q[c] - q[r] (mod 4):
    # an odd k swaps re and im, and k = 1, 2 flip the sign of the real part.
    # Both are exact, even for a non-finite entry.
    turn = (q[cols] - q[rows]) % 4
    odd = turn % 2 == 1
    real = not np.any(np.where(odd, values.real, values.imag))
    if real:
        phase = _POWERS_OF_I[q % 4]
        values = np.where(odd, values.imag, values.real) * _REAL_SIGN[turn]
    else:
        phase = np.ones(layout.dim, dtype=complex)
    if np.any(sector[rows] != sector[cols]):
        sector = np.zeros_like(sector)
    sizes = np.bincount(sector)
    # a basis state's run: 2 sector, or 2 sector + 1 in the smaller parity
    # class of a chiral sector
    label = 2 * sector
    if sizes.max() > _CHIRAL_CROSSOVER and real and np.all(odd):
        parity = q % 2
        n_odd = np.bincount(sector, parity, sizes.size)
        chiral = (sizes > _CHIRAL_CROSSOVER) & (n_odd > 0) & (n_odd < sizes)
        label += chiral[sector] & (parity == (2 * n_odd <= sizes)[sector])
    order = np.argsort(label, kind="stable")
    counts = np.bincount(label, minlength=2 * sizes.size)
    starts = np.cumsum(counts) - counts
    # position of each basis state within its run
    within = np.empty_like(order)
    within[order] = np.arange(order.size) - starts[label[order]]
    # sectors are grouped by the lengths (p, r) of their two runs, keyed
    # p + r (d + 1); r = 0 for a whole sector of p states, and 0 marks none
    key = counts[0::2] + counts[1::2] * (layout.dim + 1)
    row_sector = sector[rows]
    row_key = key[row_sector]
    rank = np.empty_like(sizes)   # of each sector among the sectors of its group

    def scatter(mine, shape):
        # the blocks of ``shape`` that the triplets ``mine`` fill; repeated
        # entries add up in triplet order
        flat = ((rank[row_sector[mine]] * shape[1] + within[rows[mine]]) * shape[2]
                + within[cols[mine]])
        # assigned, not returned: bincount gives integer zeros when there is
        # nothing to add
        blocks = np.zeros(math.prod(shape), dtype=values.dtype)
        blocks.real = np.bincount(flat, values.real[mine], blocks.size)
        if np.iscomplexobj(values):
            blocks.imag = np.bincount(flat, values.imag[mine], blocks.size)
        return blocks.reshape(shape)

    sectors = []
    for k in sorted(set(key.tolist()) - {0}):
        r, p = divmod(k, layout.dim + 1)
        ids = np.flatnonzero(key == k)
        rank[ids] = np.arange(ids.size)
        x = order[starts[2 * ids][:, None] + np.arange(p)]
        mine = row_key == k
        if r == 0:
            sectors.append((x, scatter(mine, (ids.size, p, p))))
        else:
            y = order[starts[2 * ids + 1][:, None] + np.arange(r)]
            upper = mine & (label[rows] % 2 == 0)
            sectors.append((x, y, scatter(upper, (ids.size, p, r)),
                            scatter(mine & ~upper, (ids.size, r, p))))
    return phase, sectors


def _check_hermitian(block, mirror):
    """Refuse unless ``block`` is within HERMITICITY_TOL of ``mirror``'s
    conjugate transpose, entry by entry."""
    # one temporary the size of the group: conj() returns real blocks
    # themselves, and the modulus overwrites the difference.  Written as
    # "not <=" so that a NaN entry is rejected too
    asym = block - mirror.conj().transpose(0, 2, 1)
    np.abs(asym, out=asym)
    if not np.max(asym.real) <= HERMITICITY_TOL:
        raise ValueError("evolve requires a Hermitian Hamiltonian")


def _sector_eigh(hamiltonian: LinearOp):
    """Eigendecomposition of H over the excitation sectors it leaves uncoupled.

    Returns ``(phase, sectors)`` with ``phase`` as in ``_sector_blocks``.
    ``sectors`` holds ``(idx, w, v)`` per group of whole blocks: ``v[j]
    diag(w[j]) v[j]^dag`` is the block of D^dag H D on ``idx[j]``, real when
    the blocks are, so ``eigh`` runs the real symmetric solver there.  It holds
    ``(x, y, u, s, wt)`` per group of chiral sectors (those ``_sector_blocks``
    splits beyond ``_CHIRAL_CROSSOVER``): D^dag H D is [[0, a], [a^T, 0]] over
    (``x``, ``y``) and ``u[j] diag(s[j]) wt[j]`` is the thin SVD of ``a[j]``.
    Hermiticity is checked on the blocks (``a`` against the transpose of its
    mirror on a chiral sector): every entry outside them is zero, and the
    gauge turns H[r, c] - conj(H[c, r]) by a power of i, which keeps its
    modulus, so the blocks pass the same tolerance iff H does.  Each group is
    released once it is decomposed.
    """
    phase, sectors = _sector_blocks(hamiltonian)
    sectors.reverse()
    out = []
    while sectors:
        group = sectors.pop()
        if len(group) == 2:
            idx, blocks = group
            _check_hermitian(blocks, blocks)
            w, v = np.linalg.eigh(blocks)
            out.append((idx, w, v))
        else:
            x, y, a, lower = group
            _check_hermitian(a, lower)
            del group, lower
            out.append((x, y, *np.linalg.svd(a, full_matrices=False)))
    return phase, out


def _finite_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evolution time {t!r} is not finite")
    return t


def _pairs(z):
    """A contiguous complex (..., n) array viewed as float64 (..., n, 2) (re, im) pairs."""
    return z.view(np.float64).reshape(*z.shape, 2)


def _chiral_step(u, s, wt, x, y, t):
    """exp(-i H t) [x; y] for H = [[0, a], [a^T, 0]] and a = u diag(s) wt, on
    (re, im) pairs.  H maps each pair of singular vectors (u_k, w_k) onto
    itself as s_k times a Pauli X, so exp(-i H t) acts there as cos(t s_k) -
    i sin(t s_k) X and leaves what u misses of x alone:
    y' = wt^T (cos wt y - i sin u^T x) and
    x' = x + u (vers u^T x - i sin wt y), with vers = cos(t s) - 1 =
    -2 sin^2(t s / 2).  The step is unitary to the orthonormality of u and wt,
    whatever the rounding in s, so its norm error does not grow with t."""
    angle = t * s
    cos, sin = np.cos(angle), np.sin(angle)
    vers = -2.0 * np.sin(0.5 * angle) ** 2
    cx = u.transpose(0, 2, 1) @ x
    cy = wt @ y
    # -i (re, im) is (im, -re)
    ny = cos[..., None] * cy
    ny[..., 0] += sin * cx[..., 1]
    ny[..., 1] -= sin * cx[..., 0]
    nx = vers[..., None] * cx
    nx[..., 0] += sin * cy[..., 1]
    nx[..., 1] -= sin * cy[..., 0]
    return x + u @ nx, wt.transpose(0, 2, 1) @ ny


def _propagate(spectrum, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) amplitudes from H's ``_sector_eigh`` spectrum: D v e^{-iwt} v^dag D^dag
    on whole blocks, ``_chiral_step`` on chiral groups."""
    phase, sectors = spectrum
    amps = phase.conj() * amplitudes
    out = np.empty_like(amps)
    for group in sectors:
        if len(group) == 3:
            idx, w, v = group
            coeffs = (v.conj().transpose(0, 2, 1) @ amps[idx][:, :, None])[:, :, 0]
            out[idx] = (v @ (np.exp(-1j * w * t) * coeffs)[:, :, None])[:, :, 0]
        else:
            x, y, *svd = group
            new_x, new_y = _chiral_step(*svd, _pairs(amps[x]), _pairs(amps[y]), t)
            out[x] = new_x.view(np.complex128)[..., 0]
            out[y] = new_y.view(np.complex128)[..., 0]
    return phase * out


def evolve(state: PureState, hamiltonian: LinearOp, t: float) -> PureState:
    """exp(-i H t) |state>: H is diagonalized once, sector by sector, and its
    spectrum applied, never forming exp(-i H t); norm is preserved to rounding."""
    t = _finite_time(t)
    if state.layout.dims != hamiltonian.layout.dims:
        raise ValueError("state and Hamiltonian dimensions do not match")
    return PureState(state.layout, _propagate(_sector_eigh(hamiltonian), state.amplitudes, t))
