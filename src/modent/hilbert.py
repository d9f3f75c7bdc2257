"""Composite Hilbert spaces of two-level particles and truncated field modes.

States are dense numpy amplitude vectors over a fixed basis contract: the
global basis index runs row-major over the subsystem list, with the
first-listed subsystem varying slowest (so ``tensor`` is a plain Kronecker
product).  Operators are held as COO triplets (rows, cols, values) and never
as a d x d array.  An operator's triplets are basis indices read off the
layout directly, never through a Kronecker product with an identity: the
coupling of ``dynamics.jc_hamiltonian`` moves one excitation between strided
slices of the basis viewed on the layout's dims.

Fermionic modes are hard-core two-level modes: each holds occupation 0 or 1,
operators on different modes commute, and no Jordan-Wigner sign strings are
applied.  That is the model, not a consequence of the protocols:
``simultaneous_coupling_check`` couples the target to all n modes at once,
and with Jordan-Wigner signs its results for n > 1 would differ.  A coupling
to a single mode (n = 1) is the same in either model.

All values are immutable after construction and every operation is a pure
function returning a new value, so they are safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

#: Tolerance for state normalization and trace checks.
NORM_TOL = 1e-12
#: Tolerance for Hermiticity checks.
HERMITICITY_TOL = 1e-12
#: Density-operator eigenvalues may undershoot zero by at most this much.
POSITIVITY_TOL = 1e-10


def _is_count(n) -> bool:
    """Whether ``n`` is an integer (Python's or numpy's) and not a bool."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


# ---------------------------------------------------------------------------
# subsystem kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoLevel:
    """A two-level particle with basis (g, e)."""

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class BosonicMode:
    """A bosonic field mode truncated at ``cutoff`` quanta (dimension cutoff+1)."""

    cutoff: int

    def __post_init__(self):
        if not _is_count(self.cutoff) or self.cutoff < 1:
            raise ValueError(f"bosonic cutoff must be an integer >= 1, got {self.cutoff!r}")
        object.__setattr__(self, "cutoff", int(self.cutoff))

    @property
    def dim(self) -> int:
        return self.cutoff + 1


@dataclass(frozen=True)
class FermionicMode:
    """A hard-core mode holding at most one particle, basis (0, 1)."""

    @property
    def dim(self) -> int:
        return 2


SubsystemKind = Union[TwoLevel, BosonicMode, FermionicMode]

# Level aliases accepted by basis_state for TwoLevel subsystems.
_TWO_LEVEL_NAMES = {"g": 0, "e": 1}


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemLayout:
    """An ordered list of labeled subsystems fixing the global basis.

    The basis ordering is part of the contract: index = sum_i n_i * stride_i
    with stride_i = prod of the dimensions of all later subsystems (first
    subsystem slowest).  The shape (``labels``, ``dims``, ``dim``,
    ``strides()``) is computed once per layout; the cached values are not
    fields, so equality and hashing still see ``subsystems`` alone.
    """

    subsystems: tuple

    def __post_init__(self):
        subs = []
        for label, kind in self.subsystems:
            if kind in (TwoLevel, FermionicMode):  # bare class is fine for field-free kinds
                kind = kind()
            if not isinstance(kind, (TwoLevel, BosonicMode, FermionicMode)):
                raise ValueError(f"unknown subsystem kind {kind!r}")
            subs.append((str(label), kind))
        subs = tuple(subs)
        if not subs:
            raise ValueError("layout needs at least one subsystem")
        labels = [label for label, _ in subs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        object.__setattr__(self, "subsystems", subs)

    @cached_property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.subsystems)

    @cached_property
    def dims(self) -> tuple:
        return tuple(kind.dim for _, kind in self.subsystems)

    @cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    def position(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.subsystems):
            if lab == label:
                return i
        raise KeyError(f"no subsystem labeled {label!r} (have {list(self.labels)})")

    def kind_of(self, label: str) -> SubsystemKind:
        return self.subsystems[self.position(label)][1]

    def strides(self) -> tuple:
        return self._strides

    @cached_property
    def _strides(self) -> tuple:
        dims = self.dims
        return tuple(math.prod(dims[i + 1:]) for i in range(len(dims)))

    def restrict(self, labels: Sequence[str]) -> "SystemLayout":
        """Sub-layout containing ``labels`` in the given order."""
        return SystemLayout(tuple((lab, self.kind_of(lab)) for lab in labels))


def compose_layout(subsystems: Sequence) -> SystemLayout:
    """Build a SystemLayout from (label, kind) pairs; labels must be unique."""
    return SystemLayout(tuple(subsystems))


# ---------------------------------------------------------------------------
# states and operators
# ---------------------------------------------------------------------------

def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=complex, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PureState:
    """A normalized complex amplitude vector over a layout's basis."""

    layout: SystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.shape != (self.layout.dim,):
            raise ValueError(
                f"amplitude vector has length {amps.size}, layout dimension is {self.layout.dim}")
        # a sum of squares on one core: np.linalg.norm is a BLAS call, which
        # wakes the BLAS threads on a long vector
        norm = math.sqrt(np.square(amps.view(float)).sum())
        # checks are written as "not <=" so that a NaN is rejected too
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    def overlap(self, other: "PureState") -> complex:
        if self.layout.dims != other.layout.dims:
            raise ValueError("overlap requires states of matching dimensions")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityOp:
    """A Hermitian, unit-trace, positive-semidefinite operator on a layout."""

    layout: SystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.layout.dim
        if m.shape != (d, d):
            raise ValueError(f"density matrix shape {m.shape} does not match layout dimension {d}")
        _density_eigh(m)
        object.__setattr__(self, "matrix", _freeze(m))


def _density_eigh(m: np.ndarray):
    """``np.linalg.eigh`` of a (..., d, d) stack of density matrices, run after
    the checks that every matrix must pass: Hermitian within HERMITICITY_TOL,
    unit trace within NORM_TOL and, from the eigenvalues, positive
    semidefinite within POSITIVITY_TOL.  Raises ValueError for the first check
    that some matrix fails."""
    # checks are written as "not <=" so that a NaN is rejected too; eigh reads
    # one triangle only, so Hermiticity is checked before it runs
    if not np.abs(m - m.conj().swapaxes(-1, -2)).max() <= HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = m.trace(axis1=-2, axis2=-1)
    off = abs(tr - 1.0)
    if not off.max() <= NORM_TOL:
        raise ValueError(f"density matrix trace {np.ravel(tr)[np.argmax(off)]!r} deviates from 1")
    w, v = np.linalg.eigh(m)
    if not w.min() >= -POSITIVITY_TOL:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return w, v


@dataclass(frozen=True)
class LinearOp:
    """A complex square matrix acting on a layout, held as COO triplets.

    Entry ``(rows[j], cols[j])`` is ``values[j]``; repeated index pairs add up
    and every other entry is zero.  The arrays are kept as read-only views,
    not copied, so a caller hands them over.
    """

    layout: SystemLayout
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).ravel()
        cols = np.asarray(self.cols, dtype=np.int64).ravel()
        values = np.asarray(self.values, dtype=complex).ravel()
        if not rows.size == cols.size == values.size:
            raise ValueError(f"operator triplets have lengths {rows.size}, {cols.size}, "
                             f"{values.size}")
        d = self.layout.dim
        if rows.size and not (0 <= min(rows.min(), cols.min())
                              and max(rows.max(), cols.max()) < d):
            raise ValueError(f"operator index out of range for layout dimension {d}")
        for name, arr in (("rows", rows), ("cols", cols), ("values", values)):
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __add__(self, other: "LinearOp") -> "LinearOp":
        if self.layout.dims != other.layout.dims or self.layout.labels != other.layout.labels:
            raise ValueError("operators act on different layouts")
        return LinearOp(self.layout, np.concatenate([self.rows, other.rows]),
                        np.concatenate([self.cols, other.cols]),
                        np.concatenate([self.values, other.values]))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _level_index(kind: SubsystemKind, level, label: str) -> int:
    if isinstance(level, str):
        if isinstance(kind, TwoLevel) and level in _TWO_LEVEL_NAMES:
            return _TWO_LEVEL_NAMES[level]
        raise ValueError(f"level name {level!r} is not valid for subsystem {label!r}")
    idx = int(level)
    if not 0 <= idx < kind.dim:
        raise ValueError(
            f"level {idx} out of range for subsystem {label!r} of dimension {kind.dim}")
    return idx


def basis_state(layout: SystemLayout, occupation: Sequence) -> PureState:
    """Computational basis state with one level index per subsystem.

    TwoLevel subsystems also accept the names "g" and "e".
    """
    if len(occupation) != len(layout.subsystems):
        raise ValueError(
            f"occupation list has {len(occupation)} entries for {len(layout.subsystems)} subsystems")
    index = 0
    for (label, kind), level, stride in zip(layout.subsystems, occupation, layout.strides()):
        index += _level_index(kind, level, label) * stride
    amps = np.zeros(layout.dim, dtype=complex)
    amps[index] = 1.0
    return PureState(layout, amps)


def superpose(terms: Sequence) -> PureState:
    """Normalized linear combination of same-layout states.

    Raises if the layouts differ or the combination vanishes.
    """
    if not terms:
        raise ValueError("superpose needs at least one term")
    _, first = terms[0]
    layout = first.layout
    acc = np.zeros(layout.dim, dtype=complex)
    for coeff, state in terms:
        if state.layout.labels != layout.labels or state.layout.dims != layout.dims:
            raise ValueError("all superposed states must share one layout")
        acc = acc + complex(coeff) * state.amplitudes
    norm = np.linalg.norm(acc)
    if norm < 1e-12:
        raise ValueError("superposition collapsed to the zero vector")
    return PureState(layout, acc / norm)


def default_coherent_cutoff(eta: complex) -> int:
    """Cutoff giving sub-1e-10 truncation weight for amplitude ``eta``."""
    a = abs(eta)
    cutoff = a * a + 8.0 * a + 20.0
    if not math.isfinite(cutoff):
        raise ValueError(f"eta must be finite, and so must the automatic cutoff "
                         f"|eta|**2 + 8 |eta| + 20, got {eta!r}")
    return int(math.ceil(cutoff))


def _amplitudes_from_log_ratios(steps) -> np.ndarray:
    """Normalized amplitudes c_0 .. c_L from ``steps`` (L,), the logs of the
    ratios c_n / c_{n-1} for n = 1 .. L, which must decrease in n.

    The largest amplitude is c_k, k the number of positive steps; the steps
    are summed outward from it, so each sum is small where the weight lies
    and each amplitude there keeps its relative accuracy, and no factorial
    or power is formed that could overflow a float."""
    k = np.count_nonzero(steps > 0)
    log_c = np.zeros(steps.size + 1)
    log_c[k + 1:] = np.cumsum(steps[k:])
    log_c[:k] = -np.cumsum(steps[:k][::-1])[::-1]
    c = np.exp(log_c)
    return c / np.linalg.norm(c)


def _poisson_tail(lam: float, cutoff: int) -> float:
    """P(N > cutoff) for N ~ Poisson(lam).

    The terms are summed away from the mean, so each ratio of successive
    terms is below 1: upward from cutoff + 1 when that is at or above the
    mean, else downward from the cutoff, giving 1 - P(N <= cutoff).  The
    first term comes from one ``math.lgamma`` in log space, so neither a
    large ``lam`` nor a tiny tail overflows or underflows on the way.  Term i
    is at most exp(-i^2 / (4 lam)) times the first for i <= lam, and halves
    at each step beyond, so m = 14 sqrt(lam) + 60 terms leave out a share of
    the sum below 1e-17.  Upward, lam <= cutoff + 1 bounds m; downward, the
    cutoff bounds the terms; so a huge lam beside a small cutoff allocates
    nothing large.
    """
    if lam == 0.0:  # eta == 0, or |eta|^2 underflowed
        return 0.0
    m = int(14.0 * math.sqrt(lam)) + 60
    upward = cutoff + 1 >= lam
    if upward:
        k = cutoff + 1
        ratios = lam / np.arange(k + 1, k + m)
    else:
        k = cutoff
        ratios = np.arange(k, max(k - m, 0), -1) / lam
    mass = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)
                    + math.log1p(np.cumprod(ratios).sum()))
    return mass if upward else 1.0 - mass


def coherent_mode_state(cutoff: int, eta: complex, label: str = "mode"):
    """Truncated coherent state of one bosonic mode.

    Amplitudes are proportional to eta^n / sqrt(n!) for n = 0..cutoff and
    renormalized after truncation.  Magnitudes come from the ratio
    recurrence log(c_n / c_{n-1}) = log1p((|eta|^2 - n) / n) / 2, summed
    outward from the largest amplitude (``_amplitudes_from_log_ratios``), so
    large |eta| neither overflows nor underflows and the amplitudes near
    n = |eta|^2 keep their relative accuracy.  The weight beyond the cutoff
    is the tail of Poisson(|eta|^2), also summed in log space; it is exactly
    0.0 when |eta|^2 is 0.0 and exactly 1.0 when |eta|^2 overflows.

    Returns
    -------
    (PureState, float)
        The state on a single BosonicMode(cutoff) layout, and the weight the
        untruncated expansion carries beyond the cutoff.
    """
    kind = BosonicMode(cutoff)
    cutoff = kind.cutoff
    eta = complex(eta)
    if not cmath.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")
    try:
        lam = abs(eta) ** 2
    except OverflowError:  # |eta|^2 beyond the float range: all weight lies past any cutoff
        lam = math.inf
    if eta == 0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
    else:
        n = np.arange(1, cutoff + 1)
        # |eta|^2 - n keeps the digits of |eta|^2 while n <= 2 |eta|^2; above,
        # and where |eta|^2 underflows, the ratio is taken as |eta| / sqrt(n),
        # whose log is -inf where it underflows too: amplitude 0 from there on
        near = np.count_nonzero(n <= 2 * lam)
        with np.errstate(divide="ignore"):
            far = np.log(abs(eta) / np.sqrt(n[near:]))
        steps = np.concatenate([0.5 * np.log1p((lam - n[:near]) / n[:near]), far])
        amps = (_amplitudes_from_log_ratios(steps)
                * np.exp(1j * np.arange(cutoff + 1) * math.atan2(eta.imag, eta.real)))
    state = PureState(compose_layout([(label, kind)]), amps)
    if lam == math.inf:
        return state, 1.0
    return state, _poisson_tail(lam, cutoff)


# ---------------------------------------------------------------------------
# combination and reduction
# ---------------------------------------------------------------------------

def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product of two states; layouts concatenate (labels disjoint)."""
    clash = set(a.layout.labels) & set(b.layout.labels)
    if clash:
        raise ValueError(f"label collision in tensor product: {sorted(clash)}")
    layout = SystemLayout(a.layout.subsystems + b.layout.subsystems)
    return PureState(layout, np.kron(a.amplitudes, b.amplitudes))


def reduced_density(state: PureState, keep: Sequence[str]) -> DensityOp:
    """Reduced density operator of a pure state, without forming the full projector.

    Every subsystem not in ``keep`` is traced out; the reduced operator's
    basis is ordered row-major over ``keep`` in the order given.
    """
    if isinstance(keep, str):
        raise TypeError(f"keep must be a sequence of labels, not the string {keep!r}")
    keep = list(keep)
    if not keep:
        raise ValueError("keep-set must be non-empty")
    positions = [state.layout.position(lab) for lab in keep]
    if len(set(positions)) != len(positions):
        raise ValueError("keep labels must be distinct")
    dims = state.layout.dims
    rest = [i for i in range(len(dims)) if i not in positions]
    order = positions + rest
    d_keep = int(np.prod([dims[p] for p in positions]))
    x = state.amplitudes.reshape(dims).transpose(order).reshape(d_keep, -1)
    return DensityOp(state.layout.restrict(keep), x @ x.conj().T)
