"""Sparse Fock-state vectors and ladder-operator actions.

States are immutable value objects: every operation returns a new
``FockState``. Amplitudes are kept in a sparse map keyed by occupation
tuples (photons per mode), which is exact and cheap at the photon numbers
this package targets (a handful of photons over at most a few modes).

Mode ordering: index 0 is the leftmost slot of the occupation tuple and
corresponds to port 1 of a circuit. The command-line layer converts
between 0-based internal indices and 1-based port numbers.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator, Mapping

#: Amplitudes below this magnitude may be dropped without affecting any
#: reported probability at the package's working tolerances.
PRUNE_TOL = 1e-12

#: Absolute tolerance used for normalization checks.
NORM_ATOL = 1e-9

Occupation = tuple[int, ...]


def check_occupation(counts: Iterable[int], num_modes: int | None = None) -> Occupation:
    """Validate and canonicalize an occupation vector."""
    occ = tuple(int(n) for n in counts)
    if num_modes is not None and len(occ) != num_modes:
        raise ValueError(f"occupation has {len(occ)} modes, expected {num_modes}")
    if any(n < 0 for n in occ):
        raise ValueError(f"occupation entries must be non-negative: {occ}")
    return occ


class FockState:
    """Sparse complex-amplitude map over photon occupation vectors.

    The zero state (no stored terms) is a valid value; it is what
    annihilating the vacuum produces.
    """

    __slots__ = ("num_modes", "_amp")

    def __init__(self, num_modes: int, amplitudes: Mapping[Occupation, complex] | None = None):
        if num_modes < 1:
            raise ValueError("num_modes must be positive")
        self.num_modes = int(num_modes)
        amp: dict[Occupation, complex] = {}
        if amplitudes:
            for occ, a in amplitudes.items():
                occ = check_occupation(occ, self.num_modes)
                a = complex(a)
                if not (cmath.isfinite(a)):
                    raise ValueError(f"non-finite amplitude {a!r} for {occ}")
                if a != 0:
                    amp[occ] = amp.get(occ, 0j) + a
        self._amp = amp

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
        state._amp = amplitudes
        return state

    @classmethod
    def vacuum(cls, num_modes: int) -> "FockState":
        return cls(num_modes, {(0,) * num_modes: 1.0 + 0j})

    @classmethod
    def zero(cls, num_modes: int) -> "FockState":
        return cls(num_modes, {})

    # -- inspection ---------------------------------------------------

    def amplitude(self, counts: Iterable[int]) -> complex:
        return self._amp.get(check_occupation(counts, self.num_modes), 0j)

    def terms(self) -> Iterator[tuple[Occupation, complex]]:
        """Iterate (occupation, amplitude) pairs in a fixed sorted order."""
        for occ in sorted(self._amp):
            yield occ, self._amp[occ]

    def num_terms(self) -> int:
        return len(self._amp)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self._amp.values()))

    def is_normalized(self, atol: float = NORM_ATOL) -> bool:
        return abs(sum(abs(a) ** 2 for a in self._amp.values()) - 1.0) <= atol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"({a:.4g})|{','.join(map(str, occ))}>" for occ, a in self.terms()]
        return f"FockState({self.num_modes}, {' + '.join(parts) or '0'})"

    # -- algebra ------------------------------------------------------

    def scaled(self, factor: complex) -> "FockState":
        factor = complex(factor)
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

    def tensor(self, other: "FockState") -> "FockState":
        """Tensor product; this state's modes come first."""
        amp: dict[Occupation, complex] = {}
        for o1, a1 in self._amp.items():
            for o2, a2 in other._amp.items():
                amp[o1 + o2] = a1 * a2
        return FockState(self.num_modes + other.num_modes, amp)

    def pruned(self, tol: float = PRUNE_TOL) -> "FockState":
        """Drop terms with |amplitude| below tol (exact zeros never survive
        construction in the first place)."""
        return FockState(self.num_modes, {o: a for o, a in self._amp.items() if abs(a) >= tol})

    # -- ladder operators ---------------------------------------------

    def _check_mode(self, mode: int) -> int:
        mode = int(mode)
        if not 0 <= mode < self.num_modes:
            raise ValueError(f"mode {mode} out of range for {self.num_modes} modes")
        return mode

    def create(self, mode: int) -> "FockState":
        """Apply the creation operator on one mode: |n> -> sqrt(n+1)|n+1>."""
        mode = self._check_mode(mode)
        amp: dict[Occupation, complex] = {}
        for occ, a in self._amp.items():
            n = occ[mode]
            new = occ[:mode] + (n + 1,) + occ[mode + 1:]
            amp[new] = amp.get(new, 0j) + a * math.sqrt(n + 1)
        return FockState(self.num_modes, amp)

    def annihilate(self, mode: int) -> "FockState":
        """Apply the annihilation operator on one mode: |n> -> sqrt(n)|n-1>."""
        mode = self._check_mode(mode)
        amp: dict[Occupation, complex] = {}
        for occ, a in self._amp.items():
            n = occ[mode]
            if n == 0:
                continue
            new = occ[:mode] + (n - 1,) + occ[mode + 1:]
            amp[new] = amp.get(new, 0j) + a * math.sqrt(n)
        return FockState(self.num_modes, amp)

    # -- inner product and normalization -------------------------------

    def inner(self, other: "FockState") -> complex:
        """<self|other> over the shared occupation basis."""
        if other.num_modes != self.num_modes:
            raise ValueError("mode-count mismatch")
        total = 0j
        for occ in self._amp.keys() & other._amp.keys():
            total += self._amp[occ].conjugate() * other._amp[occ]
        return total

    def normalized(self) -> tuple["FockState", float]:
        """Return (unit-norm state, original norm); error on the zero state."""
        n = self.norm()
        if n <= 0.0:
            raise ValueError("cannot normalize a zero-norm state")
        return self.scaled(1.0 / n), n

