"""Truncated chiral Fock spaces with exact arithmetic.

Two species of modes are supported:

* Neveu-Schwarz Majorana fermion modes ``b_s``, ``s`` in Z+1/2, with
  ``{b_s, b_s'} = delta_{s+s',0}``.  Negative ``s`` creates.
* Zero-charge u(1) boson modes ``a_n``, ``n`` in Z without 0, with
  ``[a_m, a_n] = m delta_{m+n,0}``.  The zero mode is dropped, so the
  level operator is diagonal on occupation states.

A basis state is a product of creation modes applied to the vacuum, written
in canonical ascending order (most negative value leftmost); fermionic
reordering signs are transposition counts against that order, which makes
every sign deterministic.  Inside this module a mode value ``s`` is carried
as the int ``2s`` and a level as the int ``2 * level`` ("twice" units), so
basis lookups, ordering and level comparisons run on machine ints: a state
is the ascending tuple of twice its mode values, ``StateSpace.states`` holds
those tuples and ``twice_levels`` their twice-levels, and an operator's
grading is its ``twice_shift``, so products, sums and grading compares do no
``Fraction`` arithmetic.  Cutoffs and the mode values given to
``mode_operator`` stay exact ``Fraction`` values at the API.

The stored form of an operator follows its exactness.  An exact operator
stores int numerators over one positive int ``denominator``.  A product's
denominator is the product of its operands', a sum's is their lcm, and a
builder divides out the gcd once, when the operator is finished.  An
inexact operator (a float angle, a deliberately skewed map) stores only
floats, over denominator 1.  ``floats`` reads an exact operator as an
inexact one, each int ``n`` as ``n / d``, the correctly rounded float of
``Fraction(n, d)``.  A product, a sum or a join with an inexact operand or
factor reads its operands through ``floats`` and runs the same loop on
floats, so every float is the one per-entry float arithmetic gives, each
exact entry read as ``n / d``.  ``entry`` gives an exact entry as a
``Fraction``.  ``max_abs_entry`` returns the first largest |entry| in
stored order: a ``Fraction`` for an exact operator, and for an inexact one
a float, or the int 0 when it is empty.

There is one way to add, scale, copy and restrict an operator.
``accumulate`` adds ``factor * other`` in place: ``a + b`` and ``a - b``
copy ``a`` and accumulate ``b`` into the copy, and a multiple is
accumulated into an empty operator.  With ``normalize`` it is the only
method that changes an operator, and only while the operator is being
built.  ``restrict_columns`` is the only way to drop columns: a check
restricts its operands before it multiplies, so its result holds only the
columns it reads.

Operators are honest truncations ``P L P`` of the full Fock-space operators
to levels <= cutoff.  Algebraic identities therefore hold only on the safe
subspace of states that cannot leak past the cutoff, levels
<= cutoff - |twice_shift| / 2; every check in this package restricts itself
there, and multiplies only the columns it reads
(``GradedOperator.restrict_columns``).  There is no separate vector type:
a state is an operator column ``{row: amplitude}``, and column ``j`` of
``A @ B`` is ``A`` applied to column ``j`` of ``B``.

Spaces hash once, at construction, and compare by value.  Mode matrices are
built once per (space, mode value) and shared by every caller, which is safe
because neither spaces nor built operators are ever mutated.  A mode matrix
has at most one entry per column, and it visits only the states whose image
level stays in [0, cutoff], a range of the level-ordered basis.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

FERMION = "fermion"
BOSON = "boson"

_EMPTY = {}  # the column of a zero operator; read, never written


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _rational(x):
    return isinstance(x, (int, Fraction))


def _twice_floor(level):
    """The largest twice-level at or below ``level``, an int or a Fraction, in int arithmetic."""
    return 2 * level.numerator // level.denominator


def _twice_mode(species, value):
    """2 * value as an int, for a mode value of the species."""
    value = _as_fraction(value)
    twice = 2 * value
    if species == FERMION:
        if twice.denominator != 1 or twice.numerator % 2 == 0:
            raise ValueError(f"fermion mode value must be half-odd, got {value}")
    elif species == BOSON:
        if value.denominator != 1 or value == 0:
            raise ValueError(f"boson mode value must be a nonzero integer, got {value}")
    else:
        raise ValueError(f"unknown species {species!r}")
    return twice.numerator


@dataclass(frozen=True)
class StateSpace:
    """Enumerated truncated Fock space with a deterministic basis order.

    ``states[i]`` is basis state ``i``: the ascending tuple of twice its
    creation mode values, so ``()`` is the vacuum.
    """

    species: str
    cutoff: Fraction
    states: tuple

    def __post_init__(self):
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.states)})
        object.__setattr__(self, "twice_levels", tuple(-sum(s) for s in self.states))
        object.__setattr__(self, "twice_cutoff", _twice_floor(self.cutoff))
        object.__setattr__(self, "_hash", hash((self.species, self.cutoff, self.states)))

    def __hash__(self):
        return self._hash

    @property
    def dimension(self):
        return len(self.states)

    @property
    def vacuum_index(self):
        return self._index[()]

    def index_of(self, twice):
        """The index of the state with the ascending twice mode values ``twice``, or None."""
        return self._index.get(twice)

    def parity(self, i):
        return len(self.states[i]) % 2 if self.species == FERMION else 0

    def __repr__(self):
        return f"StateSpace({self.species}, cutoff={self.cutoff}, dim={self.dimension})"


def twice_mode_values(species, bound):
    """2v for the mode values v of the species with |v| <= bound, in ascending order."""
    positive = range(1 if species == FERMION else 2, _twice_floor(_as_fraction(bound)) + 1, 2)
    return [-t for t in reversed(positive)] + list(positive)


def _partitions(parts, budget, distinct):
    """Ascending tuples of ``parts`` (ascending) with sum <= budget, each part once if distinct."""
    configs = [()]

    def extend(prefix, budget, start):
        for i in range(start, len(parts)):
            p = parts[i]
            if p > budget:
                break
            cfg = prefix + (p,)
            configs.append(cfg)
            extend(cfg, budget - p, i + 1 if distinct else i)

    extend((), budget, 0)
    return configs


def enumerate_basis(species, cutoff):
    """All canonical states with level <= cutoff, ordered by level then lexicographically."""
    cutoff = _as_fraction(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if species not in (FERMION, BOSON):
        raise ValueError(f"unknown species {species!r}")
    # twice the levels of the parts: odd and distinct for fermions, even for bosons
    parts = [t for t in twice_mode_values(species, cutoff) if t > 0]
    configs = _partitions(parts, _twice_floor(cutoff), species == FERMION)
    # cfg holds the parts ascending; the creation values are their negatives, reversed
    states = [tuple(-p for p in reversed(cfg)) for cfg in configs]
    states.sort(key=lambda s: (-sum(s), s))
    return StateSpace(species, cutoff, tuple(states))


# ---------------------------------------------------------------------------
# single-mode action on configurations (full Fock space, no truncation), in
# twice units

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
    return mult * (value // 2), occupied[:i] + occupied[i + 1:]


# ---------------------------------------------------------------------------
# graded sparse operators

def same_space(a, b):
    """Spaces are the same when they are one object or equal in value."""
    return a is b or a == b


@dataclass
class GradedOperator:
    """Sparse level- and parity-graded linear map on one truncated space.

    ``columns[j]`` maps a basis index to ``{row: stored}``.  An ``exact``
    operator stores ints, numerators over ``denominator``; an inexact one
    stores floats, each the entry itself, over denominator 1.
    Every entry connects states whose twice-levels differ by exactly
    ``twice_shift`` and whose parities differ by ``parity_shift``.
    Mutation is ``accumulate`` and ``normalize`` only, at construction
    time; restriction is ``restrict_columns`` only.  All algebraic
    operations return new operators (``restrict_columns`` shares the
    column maps it keeps), so built operators are safe to share across
    callers and threads.
    """

    space: object
    twice_shift: int
    parity_shift: int
    columns: dict
    denominator: int = 1
    exact: bool = True

    @classmethod
    def identity(cls, space):
        return cls(space, 0, 0, {j: {j: 1} for j in range(space.dimension)})

    def _like(self, columns, denominator=None, exact=None):
        """An operator with this one's space and grading."""
        return GradedOperator(self.space, self.twice_shift, self.parity_shift,
                              columns, self.denominator if denominator is None else denominator,
                              self.exact if exact is None else exact)

    def entry(self, row, col):
        val = self.columns.get(col, _EMPTY).get(row)
        if val is None:
            return Fraction(0) if self.exact else 0
        return Fraction(val, self.denominator) if type(val) is int else val

    def _numerator(self, num, den):
        """The numerator that stores ``num / den`` (ints, ``den > 0``), raising the denominator when needed."""
        g = math.gcd(num, den)
        if g > 1:
            num, den = num // g, den // g
        if self.denominator % den:
            new = math.lcm(self.denominator, den)
            self.columns = _scaled(self.columns, new // self.denominator)
            self.denominator = new
        return num * (self.denominator // den)

    def floats(self):
        """This operator with each int ``n`` read as ``n / d``, the correctly rounded float.

        An inexact operator holds only floats already and is returned as it is.
        """
        if not self.exact:
            return self
        d = self.denominator
        return self._like({j: {r: v / d for r, v in c.items()} for j, c in self.columns.items()},
                          1, False)

    def accumulate(self, other, factor=1):
        """Add ``factor * other`` into this operator; construction time only.

        An inexact operand or factor turns this operator into its floats first.
        """
        if not same_space(self.space, other.space):
            raise ValueError("cannot add operators on different spaces")
        if self.twice_shift != other.twice_shift or self.parity_shift != other.parity_shift:
            raise ValueError("cannot add operators with different grading")
        if self.exact and other.exact and _rational(factor):
            factor = self._numerator(factor.numerator, factor.denominator * other.denominator)
        else:
            self.columns, self.denominator, self.exact = self.floats().columns, 1, False
            other, factor = other.floats(), float(factor)
        cols = self.columns
        for j, c in other.columns.items():
            acc = cols.setdefault(j, {})
            for row, val in c.items():
                # +-val as plain adds and subtracts: no extra product per value
                term = val if factor == 1 else -val if factor == -1 else factor * val
                s = acc.get(row, 0) + term
                if s:
                    acc[row] = s
                else:
                    acc.pop(row, None)
            if not acc:
                del cols[j]

    def normalize(self):
        """Divide the numerators and the denominator by their gcd; returns the operator."""
        if self.denominator == 1:
            return self
        g = self.denominator
        for c in self.columns.values():
            g = math.gcd(g, *c.values())
            if g == 1:
                return self
        self.columns = {j: {r: v // g for r, v in c.items()} for j, c in self.columns.items()}
        self.denominator //= g
        return self

    def __matmul__(self, other):
        if not same_space(other.space, self.space):
            raise ValueError("operator spaces do not compose")
        if not (self.exact and other.exact):
            self, other = self.floats(), other.floats()
        left = self.columns
        cols = {}
        for j, mid in other.columns.items():
            acc = {}
            for m, v1 in mid.items():
                for row, v2 in left.get(m, _EMPTY).items():
                    prev = acc.get(row)
                    s = v2 * v1 if prev is None else prev + v2 * v1
                    if s:
                        acc[row] = s
                    else:
                        acc.pop(row, None)
            if acc:
                cols[j] = acc
        return GradedOperator(self.space, self.twice_shift + other.twice_shift,
                              (self.parity_shift + other.parity_shift) % 2, cols,
                              self.denominator * other.denominator, self.exact)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign * other, for sign +1 or -1."""
        out = self._like({j: dict(c) for j, c in self.columns.items()})
        out.accumulate(other, sign)
        return out

    def restrict_columns(self, max_level):
        """The operator on the states at level <= max_level, zero above.

        A check that reads only those columns of a product A @ B needs only
        the same columns of B.  The column maps are shared, not copied.
        """
        top, levels = _twice_floor(max_level), self.space.twice_levels
        return self._like({j: c for j, c in self.columns.items() if levels[j] <= top})

    def max_abs_entry(self):
        """The first largest |entry| in stored order, an int ``n`` read as ``Fraction(|n|, d)``.

        An exact operator gives a ``Fraction``, ``Fraction(0)`` when it is
        empty; an inexact one gives a float, or the int 0 when it is empty.
        """
        best = Fraction(0) if self.exact else 0
        for c in self.columns.values():
            for val in c.values():
                a = Fraction(abs(val), self.denominator) if type(val) is int else abs(val)
                if a > best:
                    best = a
        return best


def _scaled(columns, k):
    """``columns`` with every int numerator multiplied by ``k``."""
    return {j: {r: v * k for r, v in c.items()} for j, c in columns.items()}


def join_columns(parts):
    """Operators on one space, with one grading and disjoint columns, as one operator.

    Columns come in ascending order.  When every part is exact, the int
    numerators are over the lcm of the denominators, reduced by the gcd;
    otherwise every part is read as its floats.
    """
    first = parts[0]
    for p in parts:
        if not (same_space(p.space, first.space)
                and (p.twice_shift, p.parity_shift) == (first.twice_shift, first.parity_shift)):
            raise ValueError("cannot join operators on different spaces or gradings")
    exact = all(p.exact for p in parts)
    if not exact:
        parts = [p.floats() for p in parts]
    den = math.lcm(*(p.denominator for p in parts))
    cols = {}
    for p in parts:
        k = den // p.denominator
        cols.update(p.columns if k == 1 else _scaled(p.columns, k))
    return first._like(dict(sorted(cols.items())), den, exact).normalize()


@functools.cache
def mode_operator(space, value):
    """Matrix of b_s / a_n on a truncated space (entries outside the cutoff dropped).

    Built once per (space, value) and shared; callers must not mutate it.
    """
    twice = _twice_mode(space.species, value)
    parity, act = (1, _apply_fermion) if space.species == FERMION else (0, _apply_boson)
    # the states are in level order, and a state gives an entry only when its
    # image level, level - value, lies in [0, cutoff]: an annihilator needs a
    # level of at least its value, a creator one at most the cutoff minus |value|
    states, levels, index = space.states, space.twice_levels, space._index
    cols = {}
    for j in range(bisect.bisect_left(levels, twice),
                   bisect.bisect_right(levels, space.twice_cutoff + twice)):
        res = act(twice, states[j])
        if res is not None:
            cols[j] = {index[res[1]]: res[0]}
    return GradedOperator(space, -twice, parity, cols)


# ---------------------------------------------------------------------------
# graded tensor products

@dataclass(frozen=True)
class ProductSpace:
    """Truncated graded tensor product of two factor spaces (total level <= cutoff).

    ``states[n]`` is basis state ``n``: the pair of its factor state
    indices.  The states follow from the factors and the cutoff, so those
    two decide equality and the hash.
    """

    factors: tuple
    cutoff: Fraction

    def __post_init__(self):
        first, second = (f.twice_levels for f in self.factors)
        top = _twice_floor(self.cutoff)
        states = [(i, j)
                  for i in range(len(first))
                  for j in range(len(second))
                  if first[i] + second[j] <= top]
        states.sort(key=lambda ij: (first[ij[0]] + second[ij[1]], ij[0], ij[1]))
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "_index", {p: n for n, p in enumerate(states)})
        object.__setattr__(self, "twice_levels", tuple(first[i] + second[j] for i, j in states))
        object.__setattr__(self, "_hash", hash((self.factors, self.cutoff)))

    def __hash__(self):
        return self._hash

    @property
    def dimension(self):
        return len(self.states)

    def index_of(self, state):
        """The index of the state with the factor state indices ``state``, or None."""
        return self._index.get(state)


def graded_tensor(op, k, pspace):
    """Embed an operator on factor ``k`` (0 or 1) into the product space with the Koszul sign.

    An operator of odd parity acting on factor 1 picks up (-1)^(parity of
    the factor-0 state); factor-0 operators carry no sign.  The stored
    numbers are copied over the factor's denominator.
    """
    if k not in (0, 1):
        raise ValueError("factor index must be 0 or 1")
    first = pspace.factors[0]
    index, cols = pspace._index, {}
    for n, (i, j) in enumerate(pspace.states):
        c = op.columns.get(j if k else i)
        if c is None:
            continue
        if k == 0:
            col = {m: val for row, val in c.items() if (m := index.get((row, j))) is not None}
        else:
            sign = -1 if (op.parity_shift and first.parity(i)) else 1
            col = {m: sign * val for row, val in c.items() if (m := index.get((i, row))) is not None}
        if col:
            cols[n] = col
    return GradedOperator(pspace, op.twice_shift, op.parity_shift, cols, op.denominator, op.exact)
