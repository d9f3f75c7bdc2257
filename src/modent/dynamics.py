"""Excitation-exchange Hamiltonians, time evolution, and the controlled mixing unitary.

Units: hbar = 1 and the default coupling strength is J = 1, so all times are
expressed in units of 1/J.  Time evolution is exact: the Hamiltonian is
eigendecomposed one excitation sector at a time.  The excitation number of a
basis state is the sum of its level indices; every coupling built here
conserves it, so H is block diagonal over the sectors and each block is
diagonalized on its own (equal-size blocks in one batched ``eigh``).  A
Hamiltonian that couples two sectors is diagonalized as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    BosonicMode,
    FermionicMode,
    LinearOp,
    PureState,
    SubsystemKind,
    SystemLayout,
    TwoLevel,
    add_embedded,
    embed_operator,
)

# Raising/lowering operators of a two-level particle, basis (g, e): s+|g> = |e>.
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.conj().T


def annihilation(kind: SubsystemKind) -> np.ndarray:
    """Annihilation matrix of a mode: sqrt(n) ladder for bosons, hard-core for fermions."""
    if isinstance(kind, BosonicMode):
        return np.diag(np.sqrt(np.arange(1, kind.dim, dtype=float)), k=1).astype(complex)
    if isinstance(kind, FermionicMode):
        return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    raise ValueError(f"no annihilation operator for subsystem kind {kind!r}")


def number_operator(kind: SubsystemKind) -> np.ndarray:
    a = annihilation(kind)
    return a.conj().T @ a


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
    (qubit excitation plus mode occupations).
    """
    _check_coupling_kinds(layout, spec)
    h = np.zeros((layout.dim, layout.dim), dtype=complex)
    for m in spec.mode_labels:
        term = 1j * np.kron(SIGMA_PLUS, annihilation(layout.kind_of(m)))
        add_embedded(h, layout, spec.strength_J * (term + term.conj().T),
                     [spec.qubit_label, m])
    return LinearOp(layout, h)


def jc_hamiltonian(layout: SystemLayout, spec: CouplingSpec) -> LinearOp:
    """Single-mode excitation-exchange Hamiltonian J (i s+ a - i s- a^dag)."""
    if len(spec.mode_labels) != 1:
        raise ValueError("jc_hamiltonian couples exactly one mode; "
                         "use collective_jc_hamiltonian for several")
    return collective_jc_hamiltonian(layout, spec)


def _sector_eigh(hamiltonian: LinearOp):
    """Eigendecomposition of H over the excitation sectors it leaves uncoupled.

    Returns ``(idx, w, v)`` per sector size: ``idx`` (k, s) holds the global
    basis indices of the k sectors of size s, and ``v[j] diag(w[j]) v[j]^dag``
    is the block of H on ``idx[j]``.  If any nonzero entry of H joins two
    sectors the whole basis is one block.
    """
    if not hamiltonian.is_hermitian():
        raise ValueError("propagator requires a Hermitian Hamiltonian")
    h = hamiltonian.matrix
    # excitation number of each basis state: the sum of its level indices
    sector = np.indices(hamiltonian.layout.dims).sum(axis=0).ravel()
    rows, cols = np.nonzero(h)
    if np.any(sector[rows] != sector[cols]):
        sector = np.zeros_like(sector)
    order = np.argsort(sector, kind="stable")
    sizes = np.bincount(sector)
    starts = np.cumsum(sizes) - sizes
    out = []
    for s in sorted(set(sizes.tolist()) - {0}):
        idx = order[starts[sizes == s][:, None] + np.arange(s)]
        w, v = np.linalg.eigh(h[idx[:, :, None], idx[:, None, :]])
        out.append((idx, w, v))
    return out


def propagator(hamiltonian: LinearOp, t: float) -> LinearOp:
    """exp(-i H t), assembled block by block from the sector eigendecompositions."""
    u = np.zeros_like(hamiltonian.matrix)
    for idx, w, v in _sector_eigh(hamiltonian):
        phases = np.exp(-1j * w * float(t))[:, None, :]
        u[idx[:, :, None], idx[:, None, :]] = (v * phases) @ v.conj().transpose(0, 2, 1)
    return LinearOp(hamiltonian.layout, u)


def evolve(state: PureState, hamiltonian: LinearOp, t: float) -> PureState:
    """exp(-i H t) |state> as v e^{-iwt} v^dag |state> per sector, never forming
    the propagator; norm is preserved to rounding."""
    if state.layout.dims != hamiltonian.layout.dims:
        raise ValueError("state and Hamiltonian dimensions do not match")
    out = np.empty_like(state.amplitudes)
    for idx, w, v in _sector_eigh(hamiltonian):
        coeffs = (v.conj().transpose(0, 2, 1) @ state.amplitudes[idx][:, :, None])[:, :, 0]
        out[idx] = (v @ (np.exp(-1j * w * float(t)) * coeffs)[:, :, None])[:, :, 0]
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
