"""Excitation-exchange Hamiltonians, time evolution, and the controlled mixing unitary.

Units: hbar = 1 and the default coupling strength is J = 1, so all times are
expressed in units of 1/J.  Hamiltonians are ``LinearOp`` triplets built from
the nonzeros of each coupling; no d x d array is formed.  Time evolution is
exact: the Hamiltonian is eigendecomposed one excitation sector at a time.
The excitation number of a basis state is the sum of its level indices; every
coupling built here conserves it, so H is block diagonal over the sectors and
each block is scattered straight from the triplets and diagonalized on its
own (equal-size blocks in one batched ``eigh``).  A Hamiltonian that couples
two sectors is diagonalized as one block.
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
    embed_operator,
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


@dataclass(frozen=True)
class MixingAngle:
    """Rotation angle of the controlled mixing operation, in [0, pi]."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"mixing angle must lie in [0, pi], got {self.theta}")


def _check_coupling_kinds(layout: SystemLayout, spec: CouplingSpec):
    if not isinstance(layout.kind_of(spec.qubit_label), TwoLevel):
        raise ValueError(f"subsystem {spec.qubit_label!r} must be TwoLevel")
    for m in spec.mode_labels:
        if not isinstance(layout.kind_of(m), (BosonicMode, FermionicMode)):
            raise ValueError(f"subsystem {m!r} must be a bosonic or fermionic mode")


def collective_jc_hamiltonian(layout: SystemLayout, spec: CouplingSpec) -> LinearOp:
    """J * sum_k (i s+ a_k - i s- a_k^dag) embedded in the layout.

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


def jc_hamiltonian(layout: SystemLayout, spec: CouplingSpec) -> LinearOp:
    """Single-mode excitation-exchange Hamiltonian J (i s+ a - i s- a^dag)."""
    if len(spec.mode_labels) != 1:
        raise ValueError("jc_hamiltonian couples exactly one mode; "
                         "use collective_jc_hamiltonian for several")
    return collective_jc_hamiltonian(layout, spec)


def _sector_blocks(hamiltonian: LinearOp):
    """The blocks of H over the excitation sectors it leaves uncoupled.

    Returns ``(idx, blocks)`` per sector size: ``idx`` (k, s) holds the global
    basis indices of the k sectors of size s, and ``blocks`` (k, s, s) the
    entries of H among them, scattered from the triplets (repeated entries
    add up).  If any triplet joins two sectors the whole basis is one block.
    """
    rows, cols, values = hamiltonian.rows, hamiltonian.cols, hamiltonian.values
    # excitation number of each basis state: the sum of its level indices
    sector = np.indices(hamiltonian.layout.dims).sum(axis=0).ravel()
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
    out = []
    row_sector = sector[rows]
    for s in sorted(set(sizes.tolist()) - {0}):
        members = np.flatnonzero(sizes == s)
        rank[members] = np.arange(members.size)
        idx = order[starts[members][:, None] + np.arange(s)]
        blocks = np.zeros((members.size, s, s), dtype=complex)
        mine = sizes[row_sector] == s
        np.add.at(blocks, (rank[row_sector[mine]], within[rows[mine]], within[cols[mine]]),
                  values[mine])
        out.append((idx, blocks))
    return out


def _sector_eigh(hamiltonian: LinearOp):
    """Eigendecomposition of H over the excitation sectors it leaves uncoupled.

    Returns ``(idx, w, v)`` per sector size, with ``idx`` as in
    ``_sector_blocks`` and ``v[j] diag(w[j]) v[j]^dag`` the block of H on
    ``idx[j]``.  Hermiticity is checked on the blocks: every entry outside
    them is zero, so H is Hermitian iff they are.
    """
    out = []
    for idx, blocks in _sector_blocks(hamiltonian):
        # written as "not <=" so that a NaN entry is rejected too
        if not np.max(np.abs(blocks - blocks.conj().transpose(0, 2, 1))) <= HERMITICITY_TOL:
            raise ValueError("propagator requires a Hermitian Hamiltonian")
        w, v = np.linalg.eigh(blocks)
        out.append((idx, w, v))
    return out


def _finite_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evolution time {t!r} is not finite")
    return t


def propagator(hamiltonian: LinearOp, t: float) -> np.ndarray:
    """exp(-i H t) as a dense d x d array, assembled from the sector
    eigendecompositions; meant for small systems such as one collision."""
    t = _finite_time(t)
    d = hamiltonian.layout.dim
    u = np.zeros((d, d), dtype=complex)
    for idx, w, v in _sector_eigh(hamiltonian):
        phases = np.exp(-1j * w * t)[:, None, :]
        u[idx[:, :, None], idx[:, None, :]] = (v * phases) @ v.conj().transpose(0, 2, 1)
    return u


def evolve(state: PureState, hamiltonian: LinearOp, t: float) -> PureState:
    """exp(-i H t) |state> as v e^{-iwt} v^dag |state> per sector, never forming
    the propagator; norm is preserved to rounding."""
    t = _finite_time(t)
    if state.layout.dims != hamiltonian.layout.dims:
        raise ValueError("state and Hamiltonian dimensions do not match")
    out = np.empty_like(state.amplitudes)
    for idx, w, v in _sector_eigh(hamiltonian):
        coeffs = (v.conj().transpose(0, 2, 1) @ state.amplitudes[idx][:, :, None])[:, :, 0]
        out[idx] = (v @ (np.exp(-1j * w * t) * coeffs)[:, :, None])[:, :, 0]
    return PureState(state.layout, out)


def controlled_mixing_unitary(layout: SystemLayout, qubit_label: str, flying_label: str,
                              ancilla_label: str, angle) -> LinearOp:
    """Rotation [[cos, -sin], [sin, cos]] on the ordered subspace
    {|e,1,0>, |e,0,1>} of (qubit, flying mode, ancilla mode), identity elsewhere.
    """
    theta = angle.theta if isinstance(angle, MixingAngle) else float(angle)
    MixingAngle(theta)  # range check
    if not isinstance(layout.kind_of(qubit_label), TwoLevel):
        raise ValueError(f"subsystem {qubit_label!r} must be TwoLevel")
    for lab in (flying_label, ancilla_label):
        if not isinstance(layout.kind_of(lab), FermionicMode):
            raise ValueError(f"subsystem {lab!r} must be a FermionicMode")
    # local basis row-major over (qubit, flying, ancilla): |e,1,0> = 6, |e,0,1> = 5
    local = np.eye(8, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    local[6, 6] = c
    local[5, 5] = c
    local[6, 5] = -s
    local[5, 6] = s
    return embed_operator(layout, local, [qubit_label, flying_label, ancilla_label])
