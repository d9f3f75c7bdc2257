"""Excitation-exchange Hamiltonians and their exact time evolution.

Units: hbar = 1 and the coupling strength is J = 1, so all times are
expressed in units of 1/J.  Hamiltonians are ``LinearOp`` triplets built from
the nonzeros of each coupling; no d x d array is formed.  The excitation
number of a basis state is the sum of its level indices.  Every coupling
built here conserves it and is i sqrt(n) times a real ladder between states
whose two-level indices sum to q + 1 and q, so with D = diag(i^q) the gauged
H' = D^dag H D is real symmetric and block diagonal over the sectors, and
exp(-i H t) = D exp(-i H' t) D^dag.  The gauge is exact: each entry of H' and
each amplitude is turned by a power of i, which only swaps and negates its
real and imaginary parts.

``evolve`` takes one of two paths, by one rule.  When H conserves the
excitation number, has that real gauge, has no diagonal entry and has no
sector of more than two states (one two-level system on one mode: the
Jaynes-Cummings doublets {|g, n>, |e, n - 1>}, Jaynes & Cummings,
Proc. IEEE 51, 89 (1963)), its spectrum is known in closed form.  A state
alone in its sector has a zero row and is kept as it is.  The real block of
H' on a two-state sector, scattered straight from the triplets, is
[[0, b], [b, 0]], whose spectrum is written down bit for bit as LAPACK
returns it: one ``(phase, pairs, w, v)`` spectrum holds the gauge, the
(k, 2) pairs and each pair's eigenvalues and eigenvectors.  Every other H,
whatever its sectors or phases, is propagated by Lanczos steps on the
triplets (Saad, SIAM J. Numer. Anal. 29, 209 (1992); Hochbruck & Lubich,
SIAM J. Numer. Anal. 34, 1911 (1997)), which need neither sectors nor a
gauge and keep the same error bound for any Hermitian H.  Each substep
builds an orthonormal basis V of the Krylov space of the current vector w
and the tridiagonal T = V^dag H V, and takes
exp(-i H tau) w = |w| V exp(-i T tau) e_1.  A basis that spans an invariant
subspace (a lucky breakdown: the next Lanczos coefficient is zero) makes
that exact; otherwise the substep is shortened until the a-posteriori
estimate of its error is within ``_KRYLOV_TOL``.  V has orthonormal columns
and exp(-i T tau) is unitary, so the norm is kept to rounding at any t.
The products with the basis (the Gram-Schmidt coefficients V^dag p, the
correction V c and the recombination V y) run in numpy's ``vecdot`` and
``vecmat`` loops, one dot product per row on one core: as BLAS
matrix-vector products on a basis of at most 30 x d they were split across
threads that only waited on each other at these sizes.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import (
    HERMITICITY_TOL,
    BosonicMode,
    FermionicMode,
    LinearOp,
    PureState,
    SystemLayout,
    TwoLevel,
)


def jc_hamiltonian(layout: SystemLayout, qubit: str, modes) -> LinearOp:
    """sum_k (i s+ a_k - i s- a_k^dag) over ``modes``, coupling the two-level
    subsystem ``qubit`` to each mode, read off the layout's level grid.

    In units with J = 1.  Hermitian by construction; conserves the total
    excitation number (qubit excitation plus mode occupations).  With
    s+|g> = |e>, mode k contributes the ladder's nonzeros only: for each
    basis state with the qubit at g and n >= 1 quanta in k, i sqrt(n) at the
    row of the state with the qubit at e and n - 1 quanta in k, then the
    conjugate transpose of those triplets.  Every mode's nonzeros are read
    off the grid in one pass, and the triplets come out mode by mode in the
    order given, as the sum of the one-mode couplings would hold them.
    """
    if isinstance(modes, str):
        raise TypeError(f"modes must be a sequence of labels, not the string {modes!r}")
    modes = tuple(modes)
    if not modes:
        raise ValueError("coupling needs at least one mode")
    labels = (qubit,) + modes
    if len(set(labels)) != len(labels):
        raise ValueError(f"coupling labels must be distinct, got {labels}")
    if not isinstance(layout.kind_of(qubit), TwoLevel):
        raise ValueError(f"subsystem {qubit!r} must be TwoLevel")
    for m in modes:
        if not isinstance(layout.kind_of(m), (BosonicMode, FermionicMode)):
            raise ValueError(f"subsystem {m!r} must be a bosonic or fermionic mode")
    levels, strides = layout.levels, layout.strides()
    q = layout.position(qubit)
    k = [layout.position(m) for m in modes]
    d = layout.dim
    # <n-1| a |n> = sqrt(n) for n >= 1; a hard-core fermion has n <= 1.  The
    # nonzeros of the (modes, d) grid run by mode, then basis state: mode j's
    # run lies in [j d, (j + 1) d).
    occupied = levels[k]
    nonzero = np.flatnonzero((levels[q] == 0) & (occupied >= 1))
    value = 1j * np.sqrt(occupied.ravel()[nonzero])
    conj = value.conj()
    bounds = np.searchsorted(nonzero, d * np.arange(len(k) + 1)).tolist()
    rows, cols, values = [], [], []
    for j, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        col = nonzero[start:stop] - j * d
        row = col + (strides[q] - strides[k[j]])
        rows += [row, col]
        cols += [col, row]
        values += [value[start:stop], conj[start:stop]]
    return LinearOp(layout, np.concatenate(rows), np.concatenate(cols), np.concatenate(values))


# i^k, and the sign of the real part of i^k (a + ib) taken from a or b, for k = 0 .. 3
_POWERS_OF_I = np.array([1, 1j, -1, -1j])
_REAL_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
# eigenvectors of [[0, b], [b, 0]] as LAPACK returns them, indexed by the
# sign of b: b = 0, b > 0, b < 0
_HALF_ROOT = 1 / math.sqrt(2)
_PAIR_VECTORS = np.array([[[1.0, 0.0], [0.0, 1.0]],
                          [[-_HALF_ROOT, _HALF_ROOT], [_HALF_ROOT, _HALF_ROOT]],
                          [[-_HALF_ROOT, -_HALF_ROOT], [-_HALF_ROOT, _HALF_ROOT]]])

# Largest Krylov basis per substep, and the bound on a substep's estimated
# error relative to the norm of the state.
_KRYLOV_DIM = 30
_KRYLOV_TOL = 1e-14


def _doublets(hamiltonian: LinearOp):
    """The closed-form spectrum of H over its two-state excitation sectors, or None.

    Returns None unless H conserves the excitation number, has the real
    gauge, has no diagonal entry and has no sector of more than two states;
    ``evolve`` then takes the Krylov step.  Otherwise returns ``(phase,
    pairs, w, v)``: ``phase`` (d,) is the diagonal of the gauge D, i^q with q
    the sum of a basis state's two-level indices; ``pairs`` (k, 2) holds the
    basis indices of the k two-state sectors, by excitation number and each
    in increasing order; ``w`` (k, 2) and ``v`` (k, 2, 2) are ``_pair_eigh``
    of b, the lower-triangle entry of each pair's real block [[0, b], [b, 0]]
    of D^dag H D, scattered from the triplets (repeated entries add up in
    triplet order, from +0.0).  A one-state sector has no diagonal entry, so
    its row of H is zero and it has no place here.  The gauge is exact: a
    power of i only swaps and negates the real and imaginary parts of an
    entry.  Hermiticity is checked on the pairs: every entry outside them is
    zero, and the gauge turns H[r, c] - conj(H[c, r]) by a power of i, which
    keeps its modulus, so the pairs pass the same tolerance iff H does.
    """
    layout = hamiltonian.layout
    rows, cols, values = hamiltonian.rows, hamiltonian.cols, hamiltonian.values
    levels = layout.levels
    # excitation number of each basis state: the sum of its level indices
    sector = levels.sum(axis=0)
    sizes = np.bincount(sector)
    if sizes.max() > 2 or np.any(rows == cols) or np.any(sector[rows] != sector[cols]):
        return None
    q = levels[[i for i, (_, kind) in enumerate(layout.subsystems)
                if isinstance(kind, TwoLevel)]].sum(axis=0)
    # entry (r, c) of D^dag H D is i^k H[r, c] with k = q[c] - q[r] (mod 4):
    # an odd k swaps re and im, and k = 1, 2 flip the sign of the real part.
    # Both are exact, even for a non-finite entry.
    turn = (q[cols] - q[rows]) % 4
    odd = turn % 2 == 1
    if np.any(np.where(odd, values.real, values.imag)):
        return None
    values = np.where(odd, values.imag, values.real) * _REAL_SIGN[turn]
    order = np.argsort(sector, kind="stable")
    pairs = order[sizes[sector[order]] == 2].reshape(-1, 2)
    # every triplet lies in a pair, off its diagonal: slot 2 j + 1 adds up the
    # lower entry of pair j (the row its second state), slot 2 j the upper one
    slot = np.empty_like(sector)
    slot[pairs] = np.arange(pairs.size).reshape(pairs.shape)
    # astype: bincount gives integer zeros when there is nothing to add
    entries = np.bincount(slot[rows], values, pairs.size).astype(float, copy=False)
    lower, upper = entries[1::2], entries[::2]
    _check_hermitian(lower - upper)
    return (_POWERS_OF_I[q % 4], pairs, *_pair_eigh(lower))


def _check_hermitian(asym):
    """Refuse unless every entry of ``asym``, a difference H - H^dag, has a
    modulus within HERMITICITY_TOL.  The modulus overwrites ``asym``, so the
    caller's difference is the one temporary; written as "not <=" so that a
    NaN entry is refused too."""
    np.abs(asym, out=asym)
    if not np.max(asym.real, initial=0.0) <= HERMITICITY_TOL:
        raise ValueError("evolve requires a Hermitian Hamiltonian")


def _pair_eigh(b):
    """``np.linalg.eigh`` of the blocks [[0, b], [b, 0]] for a (k,) array b, in
    closed form.

    w = (-|b|, |b|) and the eigenvectors are (e_1 -+ e_0)/sqrt(2) for b > 0,
    -(e_0 +- e_1)/sqrt(2) for b < 0, and the unit vectors for b = 0: the
    columns and signs LAPACK returns.  For |b| from 1e-120 to 1e145 that is
    ``eigh``'s output bit for bit (OpenBLAS); beyond that range LAPACK scales
    the block and its w is off |b| by up to an ulp, where the closed form
    stays exact.  b is finite: the Hermiticity check has refused a NaN or an
    infinity, whose asymmetry is NaN.
    """
    magnitude = np.abs(b)
    # 0.0 - |b|, not -|b|: LAPACK gives +0.0 twice for a zero block
    w = np.stack([0.0 - magnitude, magnitude], axis=1)
    # the sign of b indexes _PAIR_VECTORS: 0 (also -0.0), 1 or -1
    return w, _PAIR_VECTORS[np.sign(b).astype(np.intp)]


def _finite_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evolution time {t!r} is not finite")
    return t


def _propagate(spectrum, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) amplitudes from H's ``_doublets`` spectrum: D v e^{-iwt} v^T D^dag
    on each pair, and the identity on every other state, whose row of H is zero.

    ``amplitudes`` is one state (d,) or a stack of m states, the columns of a
    (d, m) array.  Each state takes its own matrix-vector products, batched
    over (state, pair), so a column of a stack comes out bit for bit as that
    state alone; a (2, m) matrix product per pair would round differently.
    """
    phase, pairs, w, v = spectrum
    amps = phase.conj() * amplitudes.T
    coeffs = (v.transpose(0, 2, 1) @ amps[..., pairs, None])[..., 0]
    amps[..., pairs] = (v @ (np.exp(-1j * w * t) * coeffs)[..., None])[..., 0]
    return (phase * amps).T


def _coalesce(key, values):
    """(key, value) pairs sorted by key, with the values of a repeated key
    added up in their given order.  Without a repeated key the sorted pairs
    are the result, as a sum over one-entry runs would give them."""
    order = np.argsort(key, kind="stable")
    key, values = key[order], values[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    if first.size == key.size:
        return key, values
    return key[first], np.add.reduceat(values, first)


def _hermitian_residual(key, rows, cols, values, d):
    """H - H^dag on the coalesced triplets of H, sorted by ``key`` = rows d + cols.

    The keys run by row, then column, so a stable argsort of the columns
    lists the entries by column, then row: the mirror order.  When the
    mirrored keys are the keys, as for every coupling ``jc_hamiltonian``
    builds, the mirror of entry j is entry ``mirror[j]`` and the residual is
    values - conj(values[mirror]): bit for bit the sums value + (-conj(mirror
    value)) that the merge below forms, since a float subtraction is the
    addition of the negated operand.  Any other pattern takes that merge:
    every entry and the negated conjugate of every mirror, coalesced alike,
    so an entry whose mirror is missing stands alone."""
    mirror = np.argsort(cols, kind="stable")
    if np.array_equal(cols[mirror] * d + rows[mirror], key):
        return values - values[mirror].conj()
    return _coalesce(np.concatenate([key, cols * d + rows]),
                     np.concatenate([values, -values.conj()]))[1]


def _krylov_propagate(hamiltonian: LinearOp, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) amplitudes by Lanczos substeps on the triplets of H.

    The triplets are sorted once into row-major (CSR) order and repeated
    entries added up; H minus its conjugate transpose (``_hermitian_residual``)
    must be within the tolerance of the pair check entry by entry.  Each
    product of H with a basis vector gathers the vector at the columns into
    one buffer, scales it by the values there and adds up each row's run.  A
    substep runs Lanczos from w, reorthogonalizing each new vector against
    the whole basis by classical Gram-Schmidt applied twice, for at most
    ``_KRYLOV_DIM`` vectors.  When the next coefficient beta is so small that
    beta tau stays within ``_KRYLOV_TOL`` for the whole remaining time tau (the
    basis spans an invariant subspace of H up to a perturbation of norm beta;
    a lucky breakdown), the substep takes that time.  Otherwise tau starts at
    twice the previous substep's and shrinks by quarter powers of two until
    the estimated error tau beta |e_m^T exp(-i T tau) e_1| (the residual
    beta |e_m^T exp(-i T s) e_1| of the Krylov solution, over the substep) is
    within ``_KRYLOV_TOL``.
    """
    d = hamiltonian.layout.dim
    key, values = _coalesce(hamiltonian.rows * d + hamiltonian.cols, hamiltonian.values)
    rows, cols = np.divmod(key, d)
    _check_hermitian(_hermitian_residual(key, rows, cols, values, d))
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    filled = rows[starts]
    gathered = np.empty_like(values)

    w = amplitudes.astype(complex)
    basis = np.empty((_KRYLOV_DIM, d), dtype=complex)
    tridiagonal = np.zeros((_KRYLOV_DIM, _KRYLOV_DIM))
    sign = math.copysign(1.0, t)
    tau = remaining = abs(t)
    while remaining > 0:
        norm = np.linalg.norm(w)
        basis[0] = w / norm
        tridiagonal[:] = 0.0
        for m in range(1, _KRYLOV_DIM + 1):
            # every column is in range; mode "raise" would gather through a
            # temporary before copying into the buffer
            np.take(basis[m - 1], cols, out=gathered, mode="clip")
            np.multiply(values, gathered, out=gathered)
            p = np.zeros(d, dtype=complex)
            p[filled] = np.add.reduceat(gathered, starts)
            for _ in range(2):
                c = np.vecdot(basis[:m], p)
                p -= np.vecmat(c.conj(), basis[:m])
                tridiagonal[m - 1, m - 1] += c[-1].real
            beta = np.linalg.norm(p)
            lucky = beta * remaining <= _KRYLOV_TOL
            if lucky or m == _KRYLOV_DIM:
                break
            basis[m] = p / beta
            tridiagonal[m, m - 1] = beta
        lam, q = np.linalg.eigh(tridiagonal[:m, :m])
        # the estimate is at most tau beta, so some tau passes
        tau = remaining if lucky else min(remaining, 2 * tau)
        while True:
            turns = np.exp(-1j * sign * tau * lam) * q[0]
            if tau * beta * abs(turns @ q[-1]) <= _KRYLOV_TOL:
                break
            tau *= 0.5 ** 0.25
        w = norm * np.vecmat((q @ turns).conj(), basis[:m])
        remaining -= tau
    return w


def evolve(state: PureState, hamiltonian: LinearOp, t: float) -> PureState:
    """exp(-i H t) |state>, never forming exp(-i H t); norm is preserved to
    rounding.  An H that conserves the excitation number, has the real gauge,
    has no diagonal entry and has no sector of more than two states has its
    spectrum in closed form, one doublet per two-state sector (``_doublets``),
    and that spectrum is applied pair by pair, every state alone in its sector
    kept as it is; every other H is propagated by Lanczos substeps on its
    triplets."""
    t = _finite_time(t)
    if state.layout.dims != hamiltonian.layout.dims:
        raise ValueError("state and Hamiltonian dimensions do not match")
    spectrum = _doublets(hamiltonian)
    amplitudes = (_krylov_propagate(hamiltonian, state.amplitudes, t) if spectrum is None
                  else _propagate(spectrum, state.amplitudes, t))
    return PureState(state.layout, amplitudes)
