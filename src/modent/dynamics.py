"""Excitation-exchange Hamiltonians and their exact time evolution.

Units: hbar = 1 and the coupling strength is J = 1, so all times are
expressed in units of 1/J.  No d x d array is formed.

A state is propagated by Lanczos steps on a product v -> H v
(``_sector_lanczos``; Saad, SIAM J. Numer. Anal. 29, 209 (1992); Hochbruck &
Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)).  Each substep builds an
orthonormal basis V of the Krylov space of the current vector w and the
tridiagonal T = V^dag H V, and takes exp(-i H tau) w = |w| V exp(-i T tau)
e_1.  A basis that spans an invariant subspace (a lucky breakdown: the next
Lanczos coefficient is zero) makes that exact; otherwise the substep is
shortened until the a-posteriori estimate of its error is within
``_KRYLOV_TOL``.  V has orthonormal columns and exp(-i T tau) is unitary, so
the norm is kept to rounding at any t.  When H keeps the excitation number
(the sum of the levels), each of its sectors runs its own recurrence, all in
lockstep (Park & Light, J. Chem. Phys. 85, 5870 (1986)): one recurrence over
the whole space needs a vector per distinct eigenvalue that the state
touches, 11 for collective-check's state at n = 9, while that state spans at
most two states in each sector.  An H that joins sectors leaves the whole
space as one sector.  The recurrences take the products with the basis as
elementwise products and segmented sums (``np.add.reduceat``), on one core
(CPU time = wall time).

The coupling of one target to N modes is stated once
(``_coupling_slices``): per mode, a pair of strided slices of the basis,
|g, n> and |e, n - 1>, and the values i sqrt(n).  Collective-check runs its
product on those slices (``_coupling_propagate``), with no triplets;
``jc_hamiltonian`` takes the basis indices of the same slices as its
triplets.  ``evolve`` takes the ``LinearOp`` triplets of any Hermitian H,
sorts them into rows once and checks that H is Hermitian.  Both products
work in the layout's order, and ``_sector_lanczos`` alone permutes the
basis into sector order.  ``evolve``, ``jc_hamiltonian`` and ``LinearOp``
have no caller in the protocols: they are kept as public API for any H a
library caller builds, and as the oracle the tests hold the coupling's own
product to.

One two-level target on one ladder is propagated in closed form instead
(``_propagate``, from the ladder's couplings b): the coherent field, the
collective mode of N ancillas (one collision is the mode of N = 1), the
collision of the sequential rotation, and each side of the absorption.
The coupling is i b_n times a real ladder between |g, n> and |e, n - 1>, so
with D = diag(i^q), q the target's level, D^dag H D is real symmetric and
splits into the Jaynes-Cummings doublets {|g, n>, |e, n - 1>} (Jaynes &
Cummings, Proc. IEEE 51, 89 (1963)).  The gauge is exact: each amplitude is
turned by a power of i, which only swaps and negates its real and imaginary
parts.
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


def _coupling_slices(layout: SystemLayout, qubit: str, modes):
    """The coupling of the TwoLevel ``qubit`` to each of the distinct bosonic
    or fermionic ``modes``, mode by mode in the order given; anything else is
    refused.

    Mode k's term is read on the basis viewed on five axes: the subsystems
    before the first of (qubit, k), that one, those between, the other, those
    after.  Each mode yields its stride, that shape, the slice of the states
    |g, n>, n = 1 .. L on a ladder of L + 1 levels, the slice of |e, n - 1>
    in the same order, and <n - 1| a |n> = sqrt(n) times i on the mode's
    axis of those slices (a hard-core fermion has L = 1).
    """
    if isinstance(modes, str):
        raise TypeError(f"modes must be a sequence of labels, not the string {modes!r}")
    modes = tuple(modes)
    if not modes:
        raise ValueError("coupling needs at least one mode")
    labels = (qubit,) + modes
    if len(set(labels)) != len(labels):
        raise ValueError(f"coupling labels must be distinct, got {labels}")
    q, axes = layout.position(qubit), [layout.position(m) for m in modes]
    if not isinstance(layout.subsystems[q][1], TwoLevel):
        raise ValueError(f"subsystem {qubit!r} must be TwoLevel")
    for m, k in zip(modes, axes):
        if not isinstance(layout.subsystems[k][1], (BosonicMode, FermionicMode)):
            raise ValueError(f"subsystem {m!r} must be a bosonic or fermionic mode")
    dims, strides = layout.dims, layout.strides()
    for k in axes:
        first, second = sorted((q, k))
        shape = (math.prod(dims[:first]), dims[first], math.prod(dims[first + 1:second]),
                 dims[second], math.prod(dims[second + 1:]))
        top = dims[k] - 1
        value = 1j * np.sqrt(np.arange(1, dims[k]))
        if q < k:
            yield strides[k], shape, np.s_[:, 0, :, 1:], np.s_[:, 1, :, :top], value[:, None]
        else:
            yield strides[k], shape, np.s_[:, 1:, :, 0], np.s_[:, :top, :, 1], value[:, None, None]


def jc_hamiltonian(layout: SystemLayout, qubit: str, modes) -> LinearOp:
    """sum_k (i s+ a_k - i s- a_k^dag) over ``modes``, coupling the two-level
    subsystem ``qubit`` to each mode, as the triplets of its nonzeros.

    In units with J = 1.  Hermitian by construction; conserves the total
    excitation number (qubit excitation plus mode occupations).  With
    s+|g> = |e>, mode k contributes the basis indices of its slices
    (``_coupling_slices``): i sqrt(n) at the row of |e, n - 1> and the column
    of |g, n>, columns ascending, then the conjugate transpose of those
    triplets.  The triplets come out mode by mode in the order given, as the
    sum of the one-mode couplings would hold them.
    """
    rows, cols, values = [], [], []
    for _, shape, g, e, value in _coupling_slices(layout, qubit, modes):
        index = np.arange(layout.dim).reshape(shape)
        col, row = index[g], index[e]
        value = np.broadcast_to(value, col.shape)
        rows += [row, col]
        cols += [col, row]
        values += [value, value.conj()]
    return LinearOp(layout, *(np.concatenate(run, axis=None) for run in (rows, cols, values)))


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
    added up in their given order (a key that is not repeated keeps its
    value)."""
    order = np.argsort(key, kind="stable")
    key, values = key[order], values[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    return key[first], np.add.reduceat(values, first)


def _hermitian_residual(key, rows, cols, values, d):
    """H - H^dag on the coalesced triplets of H, sorted by ``key`` = rows d +
    cols: every entry and the negated conjugate of every mirror, coalesced
    alike, so an entry whose mirror is missing stands alone."""
    return _coalesce(np.concatenate([key, cols * d + rows]),
                     np.concatenate([values, -values.conj()]))[1]


def _excitations(dims) -> np.ndarray:
    """The excitation number, the sum of the levels, of each basis state of a
    layout with subsystem dimensions ``dims``, without a grid of every level."""
    sector = np.zeros(1, dtype=np.intp)
    for dim in dims:
        sector = np.add.outer(sector, np.arange(dim)).ravel()
    return sector


def _sector_labels(layout, rows, cols):
    """The excitation number of each basis state when every triplet (rows,
    cols) joins equal sums; otherwise one label, 0, for the whole space."""
    sector = _excitations(layout.dims)
    if np.array_equal(sector[rows], sector[cols]):
        return sector
    return np.zeros_like(sector)


def _krylov_propagate(hamiltonian: LinearOp, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) amplitudes by Lanczos substeps on the triplets of H.

    The triplets are sorted once into row-major (CSR) order and repeated
    entries added up; H minus its conjugate transpose (``_hermitian_residual``)
    must be within the tolerance of the pair check entry by entry.  Each
    sector ``_sector_labels`` gives then runs its own Lanczos recurrence, all
    in lockstep (``_sector_lanczos``).  The product v -> H v gathers v at the
    columns, scales it by the values and adds up each row's run into the
    filled rows.
    """
    layout = hamiltonian.layout
    d = layout.dim
    key, values = _coalesce(hamiltonian.rows * d + hamiltonian.cols, hamiltonian.values)
    rows, cols = np.divmod(key, d)
    _check_hermitian(_hermitian_residual(key, rows, cols, values, d))
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    filled, sector = rows[starts], _sector_labels(layout, rows, cols)
    # Gram-Schmidt fills the work buffer only between two products, so the
    # products gather into it while the triplets fit
    work = np.empty((_KRYLOV_DIM, d), dtype=complex)
    flat = work.reshape(-1)
    gathered = flat[:values.size] if values.size <= flat.size else np.empty_like(values)
    # the product needs the columns and the filled rows only
    del key, rows

    def product(v):
        # every column is in range; mode "raise" would gather through a
        # temporary before copying into the buffer
        np.take(v, cols, out=gathered, mode="clip")
        np.multiply(values, gathered, out=gathered)
        p = np.zeros(d, dtype=complex)
        p[filled] = np.add.reduceat(gathered, starts)
        return p

    return _sector_lanczos(product, work, sector, amplitudes, t)


def _coupling_propagate(layout: SystemLayout, qubit: str, modes, amplitudes: np.ndarray,
                        t: float) -> np.ndarray:
    """exp(-i H t) amplitudes for H = ``jc_hamiltonian(layout, qubit, modes)``,
    by the sector Lanczos substeps (``_sector_lanczos``) that ``evolve`` takes,
    on a product read off the same slices (``_coupling_slices``), with no
    triplets.

    H keeps the excitation number and is Hermitian by construction, so the
    sectors are the excitation numbers of the layout and nothing is checked.
    On each mode's five-axis view of the product's vector v, i sqrt(n) v[g, n]
    adds into [e, n - 1] and -i sqrt(n) v[e, n - 1] into [g, n], as strided
    slices.  Each term is the product a triplet's value takes, and each row
    adds its terms in the column order of its CSR row: into |e> rows by
    ascending stride of the mode, into |g> rows by descending stride.
    ``np.add.reduceat`` groups a row's sum otherwise (the first term last,
    four or more later terms pairwise), so the two products agree to
    rounding; on collective-check's state, whose rows add equal terms, they
    agree bit for bit up to eight modes.
    """
    terms = sorted(_coupling_slices(layout, qubit, modes), key=lambda term: term[0])

    def product(v):
        p = np.zeros_like(v)
        for _, shape, g, e, value in terms:
            p.reshape(shape)[e] += value * v.reshape(shape)[g]
        for _, shape, g, e, value in reversed(terms):
            p.reshape(shape)[g] += value.conj() * v.reshape(shape)[e]
        return p

    work = np.empty((_KRYLOV_DIM, layout.dim), dtype=complex)
    return _sector_lanczos(product, work, _excitations(layout.dims), amplitudes, t)


def _sector_lanczos(product, work, sector, amplitudes, t):
    """exp(-i H t) amplitudes by Lanczos substeps, H v = ``product(v)``, for an
    H that keeps each sector: ``sector`` labels each basis state, over 0 ..
    max (every sector holds a state).  The amplitudes, the product's vector
    and its result and the returned state are in the layout's order.
    ``work`` is a (``_KRYLOV_DIM``, d) complex buffer that Gram-Schmidt fills
    only between two products.

    The recurrences run on x, the state permuted once into sector order (a
    stable sort of the labels): sector s holds the states [bounds[s],
    bounds[s + 1]), and ``owner`` is the sector of each state in that order.
    Each product's vector is permuted back to the layout's order and its
    result into sector order, and the result is permuted back at the end.

    A substep runs one Lanczos recurrence per sector from that sector's part
    of x, all in lockstep on one basis: row m of the basis holds every
    sector's m-th vector.  Each new vector is reorthogonalized against its
    sector's basis by classical Gram-Schmidt applied twice, for at most
    ``_KRYLOV_DIM`` vectors.  The Gram-Schmidt coefficients, the norms and the
    next coefficient beta are segmented sums (``np.add.reduceat``) over the
    sectors, and the coefficients are spread back over the states through the
    work buffer.  A sector stops when beta min(tau, 1) is within
    ``_KRYLOV_TOL`` for the remaining time tau (its basis spans an invariant
    subspace of H up to a perturbation of norm beta; a lucky breakdown), or
    at once if x has no weight there: its further basis vectors are zero, so
    its tridiagonal T is padded by zeros that leave exp(-i T tau) e_1 as it
    was.  Past remaining time 1 the stop does not grow with tau, so a
    rounding-level beta still ends a recurrence at long times.  The
    tridiagonals are decomposed as one stack.  When every sector has stopped,
    the substep takes the remaining time; otherwise tau starts at twice the
    previous substep's.  It shrinks by quarter powers of two until every
    sector's estimated error tau beta |e_k^T exp(-i T tau) e_1| is within
    ``_KRYLOV_TOL`` of that sector's norm: the residual beta |e_k^T exp(-i T
    s) e_1| of its Krylov solution over the substep, with k its last basis
    vector and beta the coefficient it ran or stopped at.  Within remaining
    time 1 a stopped sector's estimate stays within beta tau <=
    ``_KRYLOV_TOL``, so only a running sector shortens a substep there.  The
    errors of the sectors are orthogonal, so the whole error stays within
    ``_KRYLOV_TOL`` of the norm of x.
    """
    order = np.argsort(sector, kind="stable")
    owner = sector[order]
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    bounds = np.searchsorted(owner, np.arange(owner[-1] + 1))
    x = amplitudes.astype(complex)[order]
    basis = np.empty_like(work)
    tridiagonal = np.zeros((bounds.size, _KRYLOV_DIM, _KRYLOV_DIM))
    # the bounds of the sectors in the real view of a complex vector
    halves = 2 * bounds

    def norms(v):
        return np.sqrt(np.add.reduceat(np.square(v.view(float)), halves))

    def spread(c, m):
        # sum_j c[j, s] basis[j] over the states of each sector s
        np.take(c, owner, axis=1, out=work[:m], mode="clip")
        np.multiply(work[:m], basis[:m], out=work[:m])
        return work[:m].sum(axis=0)

    sign = math.copysign(1.0, t)
    tau = remaining = abs(t)
    while remaining > 0:
        norm = norms(x)
        running = norm > 0
        residual, last = np.zeros(bounds.size), np.zeros(bounds.size, dtype=np.intp)
        # a sector without weight divides its zeros by 1 and stays zero
        np.divide(x, np.where(running, norm, 1.0)[owner], out=basis[0])
        for m in range(1, _KRYLOV_DIM + 1):
            p = product(basis[m - 1][position])[order]
            for _ in range(2):
                # conj(sum B conj(p)) = sum conj(B) p, with one conjugate of length d
                np.multiply(basis[:m], p.conj(), out=work[:m])
                c = np.add.reduceat(work[:m], bounds, axis=1).conj()
                p -= spread(c, m)
                tridiagonal[:, m - 1, m - 1] += c[-1].real
            beta = norms(p)
            # a stopped sector's error estimate keeps the step it stopped at
            residual = np.where(running, beta, residual)
            last = np.where(running, m - 1, last)
            running &= beta * min(remaining, 1.0) > _KRYLOV_TOL
            if m == _KRYLOV_DIM or not running.any():
                break
            # a stopped sector divides by infinity: its next vector and its
            # next coefficient are zero
            np.divide(p, np.where(running, beta, np.inf)[owner], out=basis[m])
            tridiagonal[:, m, m - 1] = beta * running
        lam, q = np.linalg.eigh(tridiagonal[:, :m, :m])
        # every entry the substep wrote lies in this block: clear it for the next
        tridiagonal[:, :m, :m] = 0.0
        tau = min(remaining, 2 * tau) if running.any() else remaining
        while True:
            turns = np.exp(-1j * sign * tau * lam) * q[:, 0]
            error = tau * residual * np.abs(np.vecdot(q[np.arange(bounds.size), last], turns))
            if np.all(error <= _KRYLOV_TOL):
                break
            tau *= 0.5 ** 0.25
        # a matmul: np.vecdot rounds the absorption's amplitudes off those of
        # the closed form, _propagate, which evolve matches bit for bit
        x = spread(((q @ turns[:, :, None])[..., 0] * norm[:, None]).T, m)
        remaining -= tau
    return x[position]


def evolve(state: PureState, hamiltonian: LinearOp, t: float) -> PureState:
    """exp(-i H t) |state> by Lanczos substeps on the triplets of H
    (``_krylov_propagate``), for any Hermitian H, never forming exp(-i H t);
    norm is preserved to rounding."""
    t = _finite_time(t)
    if state.layout.dims != hamiltonian.layout.dims:
        raise ValueError("state and Hamiltonian dimensions do not match")
    return PureState(state.layout, _krylov_propagate(hamiltonian, state.amplitudes, t))
