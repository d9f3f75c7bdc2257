"""Excitation-exchange Hamiltonians and their exact time evolution.

Units: hbar = 1 and the coupling strength is J = 1, so all times are
expressed in units of 1/J.  Hamiltonians are ``LinearOp`` triplets built from
the nonzeros of each coupling; no d x d array is formed.

``evolve`` is the one propagation of a state under a ``LinearOp``: Lanczos
steps on the triplets of any Hermitian H (Saad, SIAM J. Numer. Anal. 29, 209
(1992); Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)).  Each
substep builds an orthonormal basis V of the Krylov space of the current
vector w and the tridiagonal T = V^dag H V, and takes
exp(-i H tau) w = |w| V exp(-i T tau) e_1.  A basis that spans an invariant
subspace (a lucky breakdown: the next Lanczos coefficient is zero) makes
that exact; otherwise the substep is shortened until the a-posteriori
estimate of its error is within ``_KRYLOV_TOL``.  V has orthonormal columns
and exp(-i T tau) is unitary, so the norm is kept to rounding at any t.
The products with the basis (the Gram-Schmidt coefficients V^dag p, the
correction V c and the recombination V y) run in numpy's ``vecdot`` and
``vecmat`` loops, one dot product per row: as BLAS matrix-vector products
on a basis of at most 30 x d they were split across threads that only
waited on each other.  They stay on one core (CPU time = wall time) up to
d = 4096, collective-check's n = 11; from d = 8192 numpy hands them to
threaded BLAS, and a call takes twice its wall time in CPU on two threads.

One two-level target on one ladder, the coherent field, the
target-ancilla collision and the collective mode of N ancillas, is
propagated in closed form instead (``_propagate``, from the ladder's
couplings b): the coupling is i b_n times a real ladder between |g, n> and
|e, n - 1>, so with D = diag(i^q), q the target's level, D^dag H D is real
symmetric and splits into the Jaynes-Cummings doublets {|g, n>, |e, n - 1>}
(Jaynes & Cummings, Proc. IEEE 51, 89 (1963)).  The gauge is exact: each
amplitude is turned by a power of i, which only swaps and negates its real
and imaginary parts.
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


# the entries of the eigenvectors (e_1 -+ e_0)/sqrt(2) of [[0, b], [b, 0]]
_HALF_ROOT = 1 / math.sqrt(2)

# Largest Krylov basis per substep, and the bound on a substep's estimated
# error relative to the norm of the state.
_KRYLOV_DIM = 30
_KRYLOV_TOL = 1e-14


def _check_hermitian(asym):
    """Refuse unless every entry of ``asym``, a difference H - H^dag, has a
    modulus within HERMITICITY_TOL.  The modulus overwrites ``asym``, so the
    caller's difference is the one temporary; written as "not <=" so that a
    NaN entry is refused too."""
    np.abs(asym, out=asym)
    if not np.max(asym.real, initial=0.0) <= HERMITICITY_TOL:
        raise ValueError("evolve requires a Hermitian Hamiltonian")


def _finite_time(t) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evolution time {t!r} is not finite")
    return t


def _propagate(b, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) amplitudes for ``jc_hamiltonian`` of a TwoLevel target,
    listed first, on one (L + 1)-level ladder whose levels n = 1 .. L have
    the real couplings ``b`` (L,): b_n = sqrt(n) for a BosonicMode(L), [1.0]
    for a FermionicMode.

    The doublet {|g, n>, |e, n - 1>} sits at the basis indices (n, L + n),
    the slices [1:L + 1] and [L + 1:2L + 1]; there D^dag H D is
    [[0, b_n], [b_n, 0]], with eigenvalues (-b_n, b_n) and eigenvectors
    (e_1 -+ e_0)/sqrt(2), so each pair is gauged by -i on |e>, turned into
    the eigenbasis, advanced by exp(+-i b_n t), turned back and gauged by i.
    The products are the ones a 2 x 2 matrix product per pair takes, and
    for b_n > 0 the spectrum is ``np.linalg.eigh``'s of the block bit for
    bit; the exponential holds for any real b_n, zero included.  |g, 0> and
    |e, L> are alone in their sectors, where H has no entry, and are kept.

    ``amplitudes`` is one state (d,) or a stack of m states, the columns of a
    (d, m) array.  The products are elementwise and every operand is two-
    dimensional, one row per state, so a column of a stack comes out bit for
    bit as that state alone: numpy multiplies a (1,) by a (1, 1) complex
    array on another loop, which rounds differently.
    """
    levels = len(b)
    amps = np.array(amplitudes.T, dtype=complex, ndmin=2)
    g, e = amps[:, 1:levels + 1], amps[:, levels + 1:2 * levels + 1] * -1j
    h = _HALF_ROOT
    down = np.exp(-1j * np.array(b, ndmin=2) * t)
    y0 = down.conj() * (-h * g + h * e)
    y1 = down * (h * g + h * e)
    amps[:, 1:levels + 1] = -h * y0 + h * y1
    amps[:, levels + 1:2 * levels + 1] = (h * y0 + h * y1) * 1j
    return amps.T.reshape(amplitudes.shape)


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
    """exp(-i H t) |state> by Lanczos substeps on the triplets of H
    (``_krylov_propagate``), for any Hermitian H, never forming exp(-i H t);
    norm is preserved to rounding."""
    t = _finite_time(t)
    if state.layout.dims != hamiltonian.layout.dims:
        raise ValueError("state and Hamiltonian dimensions do not match")
    return PureState(state.layout, _krylov_propagate(hamiltonian, state.amplitudes, t))
