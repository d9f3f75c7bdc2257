"""Fidelity, Wootters concurrence, and the Horodecki CHSH criterion.

``DensityOp`` is the one density type.  Two-qubit matrices are in the basis
{gg, ge, eg, ee} of ``TWO_TARGETS``, the layout (tgt_l, tgt_r) of the two
target particles.  The two-qubit measures take a ``DensityOp`` with dims
(2, 2), whatever its labels, or a 4x4 array, which is validated once as a
``DensityOp`` on ``TWO_TARGETS``; ``concurrence`` also takes a stack of
them.  Pauli convention: sigma_3 |g> = +|g> (ground state is spin-up);
concurrence and the criterion value M are invariant under this choice.
"""

from __future__ import annotations

import numpy as np

from .hilbert import NORM_TOL, DensityOp, PureState, TwoLevel, _density_eigh, compose_layout

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_1, SIGMA_2, SIGMA_3)
_YY = np.kron(SIGMA_2, SIGMA_2)
# s_i^L x s_j^R at [i, j], the products of the correlation tensor
_PAULI_PAIRS = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])

#: The two targets (tgt_l, tgt_r); its row-major basis is {gg, ge, eg, ee}.
TWO_TARGETS = compose_layout([("tgt_l", TwoLevel), ("tgt_r", TwoLevel)])


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityOp):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def _two_target_matrix(rho) -> np.ndarray:
    """Matrix of a ``DensityOp`` on two two-level subsystems, or of a 4x4
    array validated as a ``DensityOp`` on ``TWO_TARGETS``."""
    if not isinstance(rho, DensityOp):
        rho = DensityOp(TWO_TARGETS, rho)
    if rho.layout.dims != (2, 2):
        raise ValueError("expected a density operator on two two-level subsystems")
    return rho.matrix


def fidelity(rho, ideal) -> float:
    """Overlap <ideal| rho |ideal> with a pure target state, clamped to [0, 1].

    ``ideal`` must have unit norm within ``NORM_TOL``, as a ``PureState`` does;
    ``rho`` is not validated, so a raw channel output may be passed.
    """
    m = _as_matrix(rho)
    psi = ideal.amplitudes if isinstance(ideal, PureState) else np.asarray(ideal, dtype=complex)
    if m.shape != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: rho is {m.shape}, state has length {psi.size}")
    norm = np.linalg.norm(psi)
    # written as "not <=" so that a NaN is rejected too
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"ideal state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
    val = complex(psi.conj() @ m @ psi)
    if not np.isfinite(val):
        raise ValueError(f"fidelity came out non-finite ({val})")
    if abs(val.imag) > 1e-12:
        raise ValueError(f"fidelity came out non-real ({val}); rho is not Hermitian enough")
    return float(min(1.0, max(0.0, val.real)))


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix.

    max(0, l1 - l2 - l3 - l4) over the descending square roots of the
    eigenvalues of rho (s2 x s2) rho* (s2 x s2), conjugation taken in the
    {gg, ge, eg, ee} basis.  Factoring rho = A A^dag turns the l_i into the
    singular values of A^T (s2 x s2) A, which stays accurate when the
    spectrum touches zero (sqrt of eigvals of the product does not).

    ``rho`` may also be an (m, 4, 4) stack of arrays: it is validated by
    ``DensityOp``'s check in one pass, whose ``eigh`` is the one the measure
    needs, and the m concurrences come back as an array.
    """
    if isinstance(rho, DensityOp):
        w, v = np.linalg.eigh(_two_target_matrix(rho))
    else:
        m = np.asarray(rho, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
            raise ValueError(f"density matrix shape {m.shape} does not match layout dimension 4")
        w, v = _density_eigh(m)
    a = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    lam = np.linalg.svd(np.swapaxes(a, -1, -2) @ _YY @ a, compute_uv=False)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    c = np.where(c > 0.0, c, 0.0)
    return float(c) if c.ndim == 0 else c


def target_pair_density(gamma: float) -> DensityOp:
    """Two-target state with equal single-excitation populations and coherence gamma.

    (1/2) * [[0,0,0,0], [0,1,g,0], [0,g,1,0], [0,0,0,0]] in {gg, ge, eg, ee}.
    """
    g = float(gamma)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    m[1, 2] = m[2, 1] = 0.5 * g
    return DensityOp(TWO_TARGETS, m)


def correlation_tensor(rho) -> np.ndarray:
    """Pauli correlation matrix T_ij = Tr[rho (s_i^L x s_j^R)], a float 3x3
    array clipped to [-1, 1]."""
    m = _two_target_matrix(rho)
    t = np.empty((3, 3), dtype=float)
    for i, j in np.ndindex(3, 3):
        t[i, j] = np.trace(m @ _PAULI_PAIRS[i, j]).real
    # a valid DensityOp bounds each entry by 1 up to rounding
    return np.clip(t, -1.0, 1.0)


def horodecki_m(rho) -> float:
    """Sum of the two largest eigenvalues of T^T T.

    The CHSH inequality is violated by some measurement setting iff this
    exceeds 1.
    """
    t = correlation_tensor(rho)
    prod = t.T @ t
    # symmetrize so the spectrum is real non-negative at rounding
    ev = np.linalg.eigvalsh(0.5 * (prod + prod.T))
    return float(ev[-1] + ev[-2])


def chsh_violated(rho) -> bool:
    return horodecki_m(rho) > 1.0


def _square_pair(a, b, measure: str):
    """The matrices of ``a`` and ``b``, after refusing, under the name of the
    ``measure``, a first one that is not square or a second of another shape."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.ndim != 2 or ma.shape[0] != ma.shape[1]:
        raise ValueError(f"{measure} requires square matrices, got shape {ma.shape}")
    if ma.shape != mb.shape:
        raise ValueError(f"{measure} requires matching dimensions")
    return ma, mb


def trace_distance(a, b) -> float:
    """(1/2) tr |a - b| for Hermitian a, b: square matrices of matching dimensions."""
    ma, mb = _square_pair(a, b, "trace distance")
    diff = ma - mb
    if not np.max(np.abs(diff - diff.conj().T)) <= 1e-9:
        raise ValueError("trace distance expects Hermitian operators")
    ev = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(0.5 * np.sum(np.abs(ev)))


def state_overlap(a, b) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(a) b sqrt(a)))^2 between two density matrices.

    Evaluated as the squared nuclear norm of A^dag B for factors a = A A^dag,
    b = B B^dag, which is stable on rank-deficient states.  Both must pass the
    density-matrix checks (Hermitian, unit trace, positive semidefinite):
    square matrices of matching dimensions.
    """
    ma, mb = _square_pair(a, b, "state overlap")
    # refused first, under its own message; _density_eigh would call a NaN non-Hermitian
    if not (np.all(np.isfinite(ma)) and np.all(np.isfinite(mb))):
        raise ValueError("state overlap of a non-finite matrix")
    wa, va = _density_eigh(ma)
    wb, vb = _density_eigh(mb)
    # rounding-level weights would inject sqrt(eps) noise through the sqrt
    wa = np.where(wa > 1e-14, wa, 0.0)
    wb = np.where(wb > 1e-14, wb, 0.0)
    fa = va * np.sqrt(wa)
    fb = vb * np.sqrt(wb)
    nuclear = np.sum(np.linalg.svd(fa.conj().T @ fb, compute_uv=False))
    return float(min(1.0, nuclear ** 2))
