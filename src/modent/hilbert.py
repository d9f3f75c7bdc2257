"""Composite Hilbert spaces of two-level particles and truncated field modes.

States are dense numpy amplitude vectors over a fixed basis contract: the
global basis index runs row-major over the subsystem list, with the
first-listed subsystem varying slowest (so ``tensor`` is a plain Kronecker
product).  Operators are held as COO triplets (rows, cols, values) and never
as a d x d array: an embedded operator scatters the nonzeros of its local
matrix to the global index pairs they occupy (``basis_offsets``), never
through a Kronecker product with an identity.

Fermionic modes are hard-core two-level modes without antisymmetrization
sign strings; the protocols built on top only ever address modes locally and
sequentially, so no anticommutation bookkeeping is needed.

All values are immutable after construction and every operation is a pure
function returning a new value, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

#: Tolerance for state normalization and trace checks.
NORM_TOL = 1e-12
#: Tolerance for Hermiticity checks.
HERMITICITY_TOL = 1e-12
#: Density-operator eigenvalues may undershoot zero by at most this much.
POSITIVITY_TOL = 1e-10


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
        if not isinstance(self.cutoff, int) or self.cutoff < 1:
            raise ValueError(f"bosonic cutoff must be an integer >= 1, got {self.cutoff!r}")

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
    subsystem slowest).
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

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dims(self) -> tuple:
        return tuple(kind.dim for _, kind in self.subsystems)

    @property
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
        norm = np.linalg.norm(amps)
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
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = np.trace(m)
        if not abs(tr - 1.0) <= NORM_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1")
        if not np.min(np.linalg.eigvalsh(m)) >= -POSITIVITY_TOL:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "matrix", _freeze(m))


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
    return int(math.ceil(a * a + 8.0 * a + 20.0))


def coherent_mode_state(cutoff: int, eta: complex, label: str = "mode"):
    """Truncated coherent state of one bosonic mode.

    Amplitudes are proportional to eta^n / sqrt(n!) for n = 0..cutoff and
    renormalized after truncation.  Magnitudes are formed in log space,
    shifted by their maximum, so large |eta| neither overflows nor
    underflows.

    Returns
    -------
    (PureState, float)
        The state on a single BosonicMode(cutoff) layout, and the weight the
        untruncated expansion carries beyond the cutoff.
    """
    from scipy import special  # imported here: a cold import costs ~0.3 s

    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    eta = complex(eta)
    if eta == 0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
    else:
        n = np.arange(cutoff + 1)
        log_mag = n * math.log(abs(eta)) - 0.5 * special.gammaln(n + 1)
        amps = np.exp(log_mag - log_mag.max()) * np.exp(1j * n * math.atan2(eta.imag, eta.real))
        amps /= np.linalg.norm(amps)
    # tail of Poisson(|eta|^2) beyond the cutoff, via the regularized lower
    # incomplete gamma (exact, no overflow for large |eta|)
    weight_beyond = float(special.gammainc(cutoff + 1, abs(eta) ** 2))
    layout = compose_layout([(label, BosonicMode(cutoff))])
    return PureState(layout, amps), weight_beyond


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


def basis_offsets(layout: SystemLayout, positions: Sequence[int]) -> np.ndarray:
    """Global index offset of every joint level of the subsystems at ``positions``.

    Row-major over ``positions`` in the order given (first slowest); an empty
    list gives the single offset 0.  A basis state's global index is the sum
    of its offsets over any partition of the subsystems.
    """
    dims, strides = layout.dims, layout.strides()
    out = np.zeros(1, dtype=np.int64)
    for p in positions:
        out = (out[:, None] + np.arange(dims[p]) * strides[p]).ravel()
    return out


def embed_triplets(layout: SystemLayout, rows, cols, values,
                   targets: Sequence[str]) -> LinearOp:
    """Embed the local operator with nonzeros ``values`` at (``rows``, ``cols``)
    so it acts on ``targets`` and as identity elsewhere.

    Each local triplet is scattered to the global index pairs it occupies for
    every level of the other subsystems.  Local indices run row-major over
    ``targets`` as given.
    """
    if not targets:
        raise ValueError("an embedded operator needs at least one target")
    positions = [layout.position(lab) for lab in targets]
    if len(set(positions)) != len(positions):
        raise ValueError("target labels must be distinct")
    target_off = basis_offsets(layout, positions)
    rest_off = basis_offsets(layout, [i for i in range(len(layout.dims)) if i not in positions])
    return LinearOp(layout, (target_off[rows, None] + rest_off).ravel(),
                    (target_off[cols, None] + rest_off).ravel(),
                    np.repeat(values, rest_off.size))


def reduced_density(state: PureState, keep: Sequence[str]) -> DensityOp:
    """Reduced density operator of a pure state, without forming the full projector.

    Every subsystem not in ``keep`` is traced out; the reduced operator's
    basis is ordered row-major over ``keep`` in the order given.
    """
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
