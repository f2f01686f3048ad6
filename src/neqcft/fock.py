"""Truncated chiral Fock spaces with exact arithmetic.

Two species of modes are supported:

* Neveu-Schwarz Majorana fermion modes ``b_s``, ``s`` in Z+1/2, with
  ``{b_s, b_s'} = delta_{s+s',0}``.  Negative ``s`` creates.
* Zero-charge u(1) boson modes ``a_n``, ``n`` in Z without 0, with
  ``[a_m, a_n] = m delta_{m+n,0}``.  The zero mode is dropped, so the
  level operator is diagonal on occupation states.

Basis states are products of creation modes applied to the vacuum, written
in canonical ascending order (most negative value leftmost); fermionic
reordering signs are transposition counts against that order, which makes
every sign deterministic.  Levels are exact ``Fraction`` values and matrix
entries stay exact whenever the inputs are exact.

Operators are honest truncations ``P L P`` of the full Fock-space operators
to levels <= cutoff.  Algebraic identities therefore hold only on the safe
subspace of states that cannot leak past the cutoff, levels
<= cutoff - |level_shift|; every check in this package restricts itself
there, and multiplies only the columns it reads
(``GradedOperator.restrict_columns``).  There is no separate vector type:
a state is an operator column ``{row: amplitude}``, and column ``j`` of
``A @ B`` is ``A`` applied to column ``j`` of ``B``.

Spaces hash once, at construction, and compare by value.  Mode matrices are
built once per (space, mode value) and shared by every caller, which is safe
because neither spaces nor built operators are ever mutated.

Hermitian structure: ``b_s^dag = b_{-s}`` and ``a_n^dag = a_{-n}``.  This
is a convention (consistent with a real fermion) used only by the
hermiticity checks.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

FERMION = "fermion"
BOSON = "boson"

HALF = Fraction(1, 2)


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _validate_mode_value(species, value):
    if species == FERMION:
        twice = 2 * value
        if twice.denominator != 1 or twice.numerator % 2 == 0:
            raise ValueError(f"fermion mode value must be half-odd, got {value}")
    elif species == BOSON:
        if value.denominator != 1 or value == 0:
            raise ValueError(f"boson mode value must be a nonzero integer, got {value}")
    else:
        raise ValueError(f"unknown species {species!r}")


@dataclass(frozen=True)
class FockState:
    """Occupation configuration: creation mode values in canonical order."""

    species: str
    occupied: tuple
    level: Fraction = field(init=False, compare=False)
    parity: int = field(init=False, compare=False)

    def __post_init__(self):
        occ = tuple(_as_fraction(v) for v in self.occupied)
        object.__setattr__(self, "occupied", occ)
        for v in occ:
            _validate_mode_value(self.species, v)
            if v >= 0:
                raise ValueError("occupied entries must be creation (negative) values")
        if list(occ) != sorted(occ):
            raise ValueError("occupied list must be in canonical ascending order")
        if self.species == FERMION and len(set(occ)) != len(occ):
            raise ValueError("fermionic occupations must be distinct")
        object.__setattr__(self, "level", -sum(occ, Fraction(0)))
        object.__setattr__(self, "parity", len(occ) % 2 if self.species == FERMION else 0)

    def __repr__(self):
        if not self.occupied:
            return "|0>"
        sym = "b" if self.species == FERMION else "a"
        return "".join(f"{sym}({v})" for v in self.occupied) + "|0>"


@dataclass(frozen=True)
class StateSpace:
    """Enumerated truncated Fock space with a deterministic basis order."""

    species: str
    cutoff: Fraction
    states: tuple

    def __post_init__(self):
        object.__setattr__(self, "_index", {s.occupied: i for i, s in enumerate(self.states)})
        object.__setattr__(self, "_hash", hash((self.species, self.cutoff, self.states)))

    def __hash__(self):
        return self._hash

    @property
    def dimension(self):
        return len(self.states)

    @property
    def vacuum_index(self):
        return self._index[()]

    def index_of(self, occupied):
        return self._index.get(tuple(occupied))

    def level(self, i):
        return self.states[i].level

    def parity(self, i):
        return self.states[i].parity

    def __repr__(self):
        return f"StateSpace({self.species}, cutoff={self.cutoff}, dim={self.dimension})"


def mode_values(species, bound):
    """Mode values v of the species with |v| <= bound, in ascending order."""
    bound = _as_fraction(bound)
    if species == FERMION:
        positive = [Fraction(2 * k + 1, 2) for k in range(math.floor(bound + HALF))]
    else:
        positive = [Fraction(k) for k in range(1, math.floor(bound) + 1)]
    return [-v for v in reversed(positive)] + positive


def _fermion_configs(cutoff):
    # parts are positive half-odd levels; subsets with distinct parts, sum <= cutoff
    parts = [v for v in mode_values(FERMION, cutoff) if v > 0]
    configs = [()]

    def extend(prefix, budget, start):
        for i in range(start, len(parts)):
            p = parts[i]
            if p > budget:
                break
            cfg = prefix + (p,)
            configs.append(cfg)
            extend(cfg, budget - p, i + 1)

    extend((), cutoff, 0)
    return configs


def _boson_configs(cutoff):
    configs = [()]

    def extend(prefix, budget, start):
        p = start
        while p <= budget:
            cfg = prefix + (p,)
            configs.append(cfg)
            extend(cfg, budget - p, p)
            p += 1
    if cutoff >= 1:
        extend((), int(cutoff), 1)
    return configs


def enumerate_basis(species, cutoff):
    """All canonical states with level <= cutoff, ordered by level then lexicographically."""
    cutoff = _as_fraction(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    gen = _fermion_configs if species == FERMION else _boson_configs
    if species not in (FERMION, BOSON):
        raise ValueError(f"unknown species {species!r}")
    states = []
    for cfg in gen(cutoff):
        # cfg holds positive levels of the parts; creation values are their negatives
        occ = tuple(sorted(-p for p in cfg))
        states.append(FockState(species, occ))
    states.sort(key=lambda s: (s.level, s.occupied))
    return StateSpace(species, cutoff, tuple(states))


# ---------------------------------------------------------------------------
# single-mode action on configurations (full Fock space, no truncation)

def _apply_fermion(value, occupied):
    if value < 0:
        if value in occupied:
            return None  # Pauli exclusion
        pos = bisect.bisect_left(occupied, value)
        sign = -1 if pos % 2 else 1
        return sign, occupied[:pos] + (value,) + occupied[pos:]
    target = -value
    try:
        i = occupied.index(target)
    except ValueError:
        return None
    sign = -1 if i % 2 else 1
    return sign, occupied[:i] + occupied[i + 1:]


def _apply_boson(value, occupied):
    if value < 0:
        pos = bisect.bisect_left(occupied, value)
        return 1, occupied[:pos] + (value,) + occupied[pos:]
    target = -value
    mult = occupied.count(target)
    if mult == 0:
        return None
    i = occupied.index(target)
    return mult * value, occupied[:i] + occupied[i + 1:]


# ---------------------------------------------------------------------------
# graded sparse operators

def same_space(a, b):
    """Spaces are the same when they are one object or equal in value."""
    return a is b or a == b


@dataclass
class GradedOperator:
    """Sparse level- and parity-graded linear map between truncated spaces.

    ``columns[j]`` maps a domain basis index to ``{row: entry}``.  Every
    entry connects states whose levels differ by exactly ``level_shift``
    and whose parities differ by ``parity_shift``.  Mutation is limited to
    construction time (``add_entry``); all algebraic operations return new
    operators (``restrict_columns`` shares the column maps it keeps), so
    built operators are safe to share across callers and threads.
    """

    domain: object
    codomain: object
    level_shift: Fraction
    parity_shift: int
    columns: dict

    @classmethod
    def zero(cls, domain, codomain, level_shift, parity_shift):
        return cls(domain, codomain, _as_fraction(level_shift), parity_shift % 2, {})

    @classmethod
    def identity(cls, space):
        cols = {j: {j: Fraction(1)} for j in range(space.dimension)}
        return cls(space, space, Fraction(0), 0, cols)

    def add_entry(self, row, col, value):
        if value == 0:
            return
        colmap = self.columns.setdefault(col, {})
        new = colmap.get(row, 0) + value
        if new == 0:
            colmap.pop(row, None)
            if not colmap:
                self.columns.pop(col, None)
        else:
            colmap[row] = new

    def entry(self, row, col):
        return self.columns.get(col, {}).get(row, 0)

    def __matmul__(self, other):
        if not same_space(other.codomain, self.domain):
            raise ValueError("operator spaces do not compose")
        cols = {}
        for j, mid in other.columns.items():
            acc = {}
            for m, v1 in mid.items():
                for row, v2 in self.columns.get(m, {}).items():
                    prev = acc.get(row)
                    s = v2 * v1 if prev is None else prev + v2 * v1
                    if s:
                        acc[row] = s
                    else:
                        acc.pop(row, None)
            if acc:
                cols[j] = acc
        return GradedOperator(other.domain, self.codomain,
                              self.level_shift + other.level_shift,
                              (self.parity_shift + other.parity_shift) % 2, cols)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign * other, for sign +1 or -1."""
        if not (same_space(self.domain, other.domain) and same_space(self.codomain, other.codomain)):
            raise ValueError("cannot add operators on different spaces")
        if (self.level_shift, self.parity_shift) != (other.level_shift, other.parity_shift):
            raise ValueError("cannot add operators with different grading")
        cols = {j: dict(c) for j, c in self.columns.items()}
        for j, c in other.columns.items():
            acc = cols.setdefault(j, {})
            for row, val in c.items():
                prev = acc.get(row, 0)
                s = prev + val if sign > 0 else prev - val
                if s:
                    acc[row] = s
                else:
                    acc.pop(row, None)
            if not acc:
                del cols[j]
        return GradedOperator(self.domain, self.codomain, self.level_shift, self.parity_shift, cols)

    def __mul__(self, scalar):
        if scalar == 0:
            return GradedOperator(self.domain, self.codomain, self.level_shift,
                                  self.parity_shift, {})
        cols = {j: {r: v * scalar for r, v in c.items()} for j, c in self.columns.items()}
        return GradedOperator(self.domain, self.codomain, self.level_shift, self.parity_shift, cols)

    __rmul__ = __mul__

    def restrict_columns(self, max_level):
        """The operator on the domain states at level <= max_level, zero above.

        A check that reads only those columns of a product A @ B needs only
        the same columns of B.  The column maps are shared, not copied.
        """
        cols = {j: c for j, c in self.columns.items() if self.domain.level(j) <= max_level}
        return GradedOperator(self.domain, self.codomain, self.level_shift, self.parity_shift, cols)

    def max_abs_entry(self, max_col_level=None):
        best = 0
        for j, c in self.columns.items():
            if max_col_level is not None and self.domain.level(j) > max_col_level:
                continue
            for val in c.values():
                a = abs(val)
                if a > best:
                    best = a
        return best

    def check_grading(self):
        for j, c in self.columns.items():
            for row in c:
                dl = self.codomain.level(row) - self.domain.level(j)
                dp = (self.codomain.parity(row) - self.domain.parity(j)) % 2
                if dl != self.level_shift or dp != self.parity_shift:
                    raise AssertionError(
                        f"entry ({row},{j}) violates grading: dl={dl}, dp={dp}")
        return True


@functools.cache
def mode_operator(space, value):
    """Matrix of b_s / a_n on a truncated space (entries outside the cutoff dropped).

    Built once per (space, value) and shared; callers must not mutate it.
    """
    value = _as_fraction(value)
    _validate_mode_value(space.species, value)
    parity, act = (1, _apply_fermion) if space.species == FERMION else (0, _apply_boson)
    op = GradedOperator.zero(space, space, -value, parity)
    for j, st in enumerate(space.states):
        res = act(value, st.occupied)
        if res is None:
            continue
        coeff, occ = res
        row = space.index_of(occ)
        if row is not None:
            op.add_entry(row, j, coeff)
    return op


# ---------------------------------------------------------------------------
# graded tensor products

@dataclass(frozen=True)
class ProductSpace:
    """Truncated graded tensor product of two factor spaces (total level <= cutoff)."""

    left: StateSpace
    right: StateSpace
    cutoff: Fraction
    pairs: tuple = field(default=None)

    def __post_init__(self):
        if self.pairs is None:
            pairs = [(i, j)
                     for i in range(self.left.dimension)
                     for j in range(self.right.dimension)
                     if self.left.level(i) + self.right.level(j) <= self.cutoff]
            pairs.sort(key=lambda ij: (self.left.level(ij[0]) + self.right.level(ij[1]),
                                       ij[0], ij[1]))
            object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "_index", {p: n for n, p in enumerate(self.pairs)})
        object.__setattr__(self, "_levels",
                           tuple(self.left.level(i) + self.right.level(j) for i, j in self.pairs))
        object.__setattr__(self, "_hash", hash((self.left, self.right, self.cutoff, self.pairs)))

    def __hash__(self):
        return self._hash

    @property
    def dimension(self):
        return len(self.pairs)

    @property
    def vacuum_index(self):
        return self._index[(self.left.vacuum_index, self.right.vacuum_index)]

    def index_of(self, pair):
        return self._index.get(pair)

    def level(self, n):
        return self._levels[n]

    def parity(self, n):
        i, j = self.pairs[n]
        return (self.left.parity(i) + self.right.parity(j)) % 2


def tensor_space(left, right, cutoff):
    return ProductSpace(left, right, _as_fraction(cutoff))


def graded_tensor(op, position, pspace):
    """Embed a factor operator into the product space with the Koszul sign.

    An operator of odd parity acting on the right factor picks up
    (-1)^(parity of the left factor state); left-factor operators carry no
    sign.
    """
    if position not in ("left", "right"):
        raise ValueError("position must be 'left' or 'right'")
    out = GradedOperator.zero(pspace, pspace, op.level_shift, op.parity_shift)
    for n, (i, j) in enumerate(pspace.pairs):
        if position == "left":
            for row, val in op.columns.get(i, {}).items():
                m = pspace.index_of((row, j))
                if m is not None:
                    out.add_entry(m, n, val)
        else:
            sign = -1 if (op.parity_shift and pspace.left.parity(i)) else 1
            for row, val in op.columns.get(j, {}).items():
                m = pspace.index_of((i, row))
                if m is not None:
                    out.add_entry(m, n, sign * val)
    return out


def gram_diagonal(space):
    """Norms squared of the basis states under b_s^dag = b_{-s}, a_n^dag = a_{-n}.

    Fermionic states are orthonormal; a bosonic mode occupied n times at
    value -k contributes n! * k^n.
    """
    out = []
    for st in space.states:
        g = Fraction(1)
        if space.species == BOSON:
            run = {}
            for v in st.occupied:
                run[v] = run.get(v, 0) + 1
            for v, n in run.items():
                k = -v
                for r in range(1, n + 1):
                    g *= r * k
        out.append(g)
    return out


def invert_graded(op):
    """Exact inverse of a level- and parity-preserving operator, block by block.

    Raises ValueError if any level block is singular.
    """
    if op.level_shift != 0 or op.parity_shift != 0:
        raise ValueError("only grading-preserving operators are invertible in place")
    space = op.domain
    blocks = {}
    for n in range(space.dimension):
        blocks.setdefault(space.level(n), []).append(n)
    inv = GradedOperator.zero(space, space, 0, 0)
    for level, idx in blocks.items():
        k = len(idx)
        pos = {n: a for a, n in enumerate(idx)}
        # dense Gauss-Jordan on the block, exact when entries are exact
        a = [[op.entry(r, c) for c in idx] for r in idx]
        b = [[Fraction(1) if i == j else Fraction(0) for j in range(k)] for i in range(k)]
        for col in range(k):
            piv = None
            best = 0
            for r in range(col, k):
                m = abs(a[r][col])
                if m > best:
                    best = m
                    piv = r
            if piv is None:
                raise ValueError(f"singular level block at level {level}")
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            pivval = a[col][col]
            a[col] = [x / pivval for x in a[col]]
            b[col] = [x / pivval for x in b[col]]
            for r in range(k):
                if r == col:
                    continue
                f = a[r][col]
                if f == 0:
                    continue
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] = [x - f * y for x, y in zip(b[r], b[col])]
        for ci, c in enumerate(idx):
            for ri, r in enumerate(idx):
                inv.add_entry(r, c, b[ri][ci])
    return inv
