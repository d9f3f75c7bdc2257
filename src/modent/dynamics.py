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
    if not np.any(np.where(odd, values.real, values.imag)):
        phase = _POWERS_OF_I[q % 4]
        values = np.where(odd, values.imag, values.real) * _REAL_SIGN[turn]
    else:
        phase = np.ones(layout.dim, dtype=complex)
    if np.any(sector[rows] != sector[cols]):
        sector = np.zeros_like(sector)
    order = np.argsort(sector, kind="stable")
    sizes = np.bincount(sector)
    starts = np.cumsum(sizes) - sizes
    # position of each basis state within its sector, and of each sector
    # among the sectors of its size
    within = np.empty_like(order)
    within[order] = np.arange(order.size) - starts[sector[order]]
    rank = np.empty_like(sizes)
    sectors = []
    row_sector = sector[rows]
    for s in sorted(set(sizes.tolist()) - {0}):
        members = np.flatnonzero(sizes == s)
        rank[members] = np.arange(members.size)
        idx = order[starts[members][:, None] + np.arange(s)]
        mine = sizes[row_sector] == s
        flat = (rank[row_sector[mine]] * s + within[rows[mine]]) * s + within[cols[mine]]
        size = members.size * s * s
        # assigned, not returned: bincount gives integer zeros when there is
        # nothing to add
        blocks = np.zeros(size, dtype=values.dtype)
        blocks.real = np.bincount(flat, values.real[mine], size)
        if np.iscomplexobj(values):
            blocks.imag = np.bincount(flat, values.imag[mine], size)
        sectors.append((idx, blocks.reshape(members.size, s, s)))
    return phase, sectors


def _sector_eigh(hamiltonian: LinearOp):
    """Eigendecomposition of H over the excitation sectors it leaves uncoupled.

    Returns ``(phase, sectors)`` with ``phase`` as in ``_sector_blocks`` and
    ``sectors`` holding ``(idx, w, v)`` per sector size: ``v[j] diag(w[j])
    v[j]^dag`` is the block of D^dag H D on ``idx[j]``, real when the blocks
    are, so ``eigh`` runs the real symmetric solver there.  Hermiticity is
    checked on the blocks: every entry outside them is zero, and the gauge
    turns H[r, c] - conj(H[c, r]) by a power of i, which keeps its modulus, so
    the blocks pass the same tolerance iff H does.
    """
    phase, sectors = _sector_blocks(hamiltonian)
    out = []
    for idx, blocks in sectors:
        # written as "not <=" so that a NaN entry is rejected too
        if not np.max(np.abs(blocks - blocks.conj().transpose(0, 2, 1))) <= HERMITICITY_TOL:
            raise ValueError("evolve requires a Hermitian Hamiltonian")
        w, v = np.linalg.eigh(blocks)
        out.append((idx, w, v))
    return phase, out


def _finite_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evolution time {t!r} is not finite")
    return t


def evolve(state: PureState, hamiltonian: LinearOp, t: float) -> PureState:
    """exp(-i H t) |state> as D v e^{-iwt} v^dag D^dag |state> per sector, never
    forming exp(-i H t) itself; norm is preserved to rounding."""
    t = _finite_time(t)
    if state.layout.dims != hamiltonian.layout.dims:
        raise ValueError("state and Hamiltonian dimensions do not match")
    phase, sectors = _sector_eigh(hamiltonian)
    amps = phase.conj() * state.amplitudes
    out = np.empty_like(amps)
    for idx, w, v in sectors:
        coeffs = (v.conj().transpose(0, 2, 1) @ amps[idx][:, :, None])[:, :, 0]
        out[idx] = (v @ (np.exp(-1j * w * t) * coeffs)[:, :, None])[:, :, 0]
    return PureState(state.layout, phase * out)
