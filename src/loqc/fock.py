"""Sparse Fock-state vectors, the value type that evolution and measurement share.

States are immutable value objects: every operation returns a new
``FockState``. A state lists only its nonzero terms, as a map keyed by
occupation tuples (photons per mode), which is exact and cheap at the
photon numbers this package targets (a handful of photons over at most a
few modes). A state that ``evolve`` or the heralded evaluator
(``multiport._HeraldedEvolution``) built holds the occupation rows and
amplitude array they computed instead, and derives the map from them the
first time a method needs it, so a caller
that reads the arrays (``measurement.outcome_distribution``, the row route
of ``measurement.postselect_branches``, the ``simulate`` report) never
builds the map of a large output; ``scaled`` by a real factor keeps a
state held as rows. ``FockState._sorted_arrays`` is the one sort of the
rows into ``terms()`` order; led by the counts on some modes, it brings
the terms that agree on them together, in ``terms()`` order, for the
distribution and the row route to sum.

Mode ordering: index 0 is the leftmost slot of the occupation tuple and
corresponds to port 1 of a circuit. The command-line layer converts
between 0-based internal indices and 1-based port numbers.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

#: Amplitudes below this magnitude may be dropped without affecting any
#: reported probability at the package's working tolerances.
PRUNE_TOL = 1e-12

#: Absolute tolerance used for normalization checks.
NORM_ATOL = 1e-9

Occupation = tuple[int, ...]


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    """``values`` as ints; a non-integer such as 1.5 raises ``ValueError``."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def _overflow_error() -> ValueError:
    """The error for a squared norm or a probability that overflows a float."""
    return ValueError("squared amplitudes overflow a float")


def check_occupation(counts: Iterable[int], num_modes: int | None = None) -> Occupation:
    """Validate and canonicalize an occupation vector."""
    occ = _integers(counts, "occupation entries")
    if num_modes is not None and len(occ) != num_modes:
        raise ValueError(f"occupation has {len(occ)} modes, expected {num_modes}")
    if any(n < 0 for n in occ):
        raise ValueError(f"occupation entries must be non-negative: {occ}")
    return occ


class FockState:
    """Complex amplitudes over photon occupation vectors, nonzero terms only.

    The terms are held either as a map from occupation tuples to Python
    complex numbers or as occupation rows with an amplitude array
    (``_of_rows``); the map is derived from the rows on first use, in row
    order, and both forms then stay, since a state never changes. The
    zero state (no stored terms) is a valid value; it is what a difference
    of equal states produces.
    """

    __slots__ = ("num_modes", "_map", "_rows", "_values")

    def __init__(self, num_modes: int, amplitudes: Mapping[Occupation, complex]):
        [self.num_modes] = _integers([num_modes], "num_modes")
        if self.num_modes < 1:
            raise ValueError("num_modes must be positive")
        amp: dict[Occupation, complex] = {}
        for occ, a in amplitudes.items():
            occ = check_occupation(occ, self.num_modes)
            a = complex(a)
            if not (cmath.isfinite(a)):
                raise ValueError(f"non-finite amplitude {a!r} for {occ}")
            if a != 0:
                amp[occ] = amp.get(occ, 0j) + a
        self._map = amp
        self._rows = self._values = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_occupation(cls, counts: Iterable[int]) -> "FockState":
        """Basis state |n1 n2 ...> with amplitude 1."""
        occ = check_occupation(counts)
        return cls(len(occ), {occ: 1.0 + 0j})

    @classmethod
    def _wrap(cls, num_modes: int, amplitudes: dict[Occupation, complex]) -> "FockState":
        """Take over a map the library built, unchecked and uncopied.

        The caller vouches for what ``__init__`` would otherwise check:
        keys are tuples of ``num_modes`` non-negative ints, values are
        finite, nonzero Python complex numbers, and no value has a -0.0
        part (``__init__`` adds each value to 0j, which turns -0.0 into 0.0).
        """
        state = object.__new__(cls)
        state.num_modes = num_modes
        state._map = amplitudes
        state._rows = state._values = None
        return state

    @classmethod
    def _of_rows(cls, num_modes: int, rows: np.ndarray, values: np.ndarray) -> "FockState":
        """Take over occupation rows and their amplitudes, checking only
        that the amplitudes are finite.

        Row i of the integer array ``rows`` (terms x ``num_modes``) holds
        the occupation of amplitude ``values[i]``. A non-finite amplitude
        raises ``ValueError``, as in ``__init__``; the caller vouches for
        the rest of what ``_wrap`` asks of the map's keys and values (no
        zero amplitude, no -0.0 part), and that no two rows are equal. Both
        arrays are kept in this order and become read-only.
        """
        if not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values))[0]
            raise ValueError(f"non-finite amplitude {complex(values[bad])!r} for {tuple(rows[bad].tolist())}")
        state = object.__new__(cls)
        state.num_modes = num_modes
        state._map = None
        state._rows, state._values = rows, values
        rows.flags.writeable = values.flags.writeable = False
        return state

    @property
    def _amp(self) -> dict[Occupation, complex]:
        """The occupation -> amplitude map, built from the rows on first use."""
        if self._map is None:
            self._map = dict(zip(map(tuple, self._rows.tolist()), self._values.tolist()))
        return self._map

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupation rows (terms x modes) and amplitudes, in the map's order;
        a state built from a map lists them afresh on each call."""
        if self._rows is not None:
            return self._rows, self._values
        rows = np.array(list(self._map), dtype=np.int64).reshape(len(self._map), self.num_modes)
        return rows, np.array(list(self._map.values()), dtype=complex)

    def _sorted_arrays(self, first: Sequence[int] = (), *also: np.ndarray) -> tuple[np.ndarray, ...]:
        """Occupation rows and amplitudes sorted by the counts on the modes
        ``first``, in the order given, then by those on the other modes,
        ascending: with no ``first``, the order of ``terms()``. Terms that
        agree on ``first`` keep their ``terms()`` order. One lexsort, whose
        last key decides first. Each array in ``also``, one entry per term
        in ``_arrays`` order, is sorted with them and returned after them."""
        rows, values = self._arrays()
        columns = list(first) + [m for m in range(self.num_modes) if m not in first]
        order = np.lexsort(rows[:, columns].T[::-1])
        return tuple(a[order] for a in (rows, values, *also))

    # -- inspection ---------------------------------------------------

    def amplitude(self, counts: Iterable[int]) -> complex:
        return self._amp.get(check_occupation(counts, self.num_modes), 0j)

    def terms(self) -> Iterator[tuple[Occupation, complex]]:
        """Iterate (occupation, amplitude) pairs in a fixed sorted order."""
        amp = self._amp
        for occ in sorted(amp):
            yield occ, amp[occ]

    def num_terms(self) -> int:
        return len(self._amp if self._rows is None else self._rows)

    def norm(self) -> float:
        """The square root of the summed squared magnitudes; a sum that
        overflows a float raises ``ValueError``."""
        try:
            total = sum(abs(a) ** 2 for a in self._amp.values())
        except OverflowError:
            raise _overflow_error() from None
        if math.isinf(total):
            raise _overflow_error()
        return math.sqrt(total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"({a:.4g})|{','.join(map(str, occ))}>" for occ, a in self.terms()]
        return f"FockState({self.num_modes}, {' + '.join(parts) or '0'})"

    # -- algebra ------------------------------------------------------

    def scaled(self, factor: complex) -> "FockState":
        """Every amplitude times ``factor``, as Python multiplies complex
        numbers; a -0.0 part becomes 0.0 and a zero amplitude is dropped.
        A state held as rows is scaled by a real factor on its arrays, to
        the same bits, and stays held as rows."""
        factor = complex(factor)
        if self._map is None and factor.imag == 0:
            # each part times the real factor: Python's cross terms are zeros
            # of either sign, which adding 0.0 makes +0.0 in either case
            with np.errstate(over="ignore", invalid="ignore"):   # _of_rows rejects what overflows
                values = np.ascontiguousarray(self._values).view(float) * factor.real + 0.0
            values = values.view(complex)
            keep = values != 0
            return FockState._of_rows(self.num_modes, self._rows[keep], values[keep])
        amp: dict[Occupation, complex] = {}
        for occ, a in self._amp.items():
            a = a * factor + 0j
            if not cmath.isfinite(a):
                raise ValueError(f"non-finite amplitude {a!r} for {occ}")
            if a != 0:
                amp[occ] = a
        return FockState._wrap(self.num_modes, amp)

    def __add__(self, other: "FockState") -> "FockState":
        if other.num_modes != self.num_modes:
            raise ValueError("mode-count mismatch")
        amp = dict(self._amp)
        for occ, a in other._amp.items():
            amp[occ] = amp.get(occ, 0j) + a
        return FockState(self.num_modes, amp)

    def __sub__(self, other: "FockState") -> "FockState":
        return self + other.scaled(-1.0)

    # -- inner product and normalization -------------------------------

    def inner(self, other: "FockState") -> complex:
        """<self|other> over the shared occupation basis."""
        if other.num_modes != self.num_modes:
            raise ValueError("mode-count mismatch")
        mine, theirs = self._amp, other._amp
        total = 0j
        for occ in mine.keys() & theirs.keys():
            total += mine[occ].conjugate() * theirs[occ]
        return total

    def normalized(self) -> tuple["FockState", float]:
        """Return (unit-norm state, original norm); error on the zero state."""
        n = self.norm()
        if n <= 0.0:
            raise ValueError("cannot normalize a zero-norm state")
        return self.scaled(1.0 / n), n

