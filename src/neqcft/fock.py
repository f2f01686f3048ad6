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
every sign deterministic.  Inside this module a mode value ``s`` is carried
as the int ``2s`` and a level as the int ``2 * level`` ("twice" units), so
basis lookups, ordering and level comparisons run on machine ints;
``FockState.occupied`` and ``level``, ``StateSpace.level`` and ``index_of``
and ``mode_values`` speak exact ``Fraction`` values.

An operator stores its exact entries as int numerators over one positive
int ``denominator``.  A product's denominator is the product of its
operands', a sum's is their lcm, and a builder divides out the gcd once,
when the operator is finished.  ``entry``, ``column``, ``to_dict`` and
``max_abs_entry`` give exact entries as ``Fraction`` values.  An inexact
entry (a float angle, a deliberately skewed map) is stored as the float
itself, in the same column maps; its exact neighbours stay numerators.
Operands with no float run through int loops.  Otherwise one value loop
keeps int x int terms and int + int sums exact, and reads an int ``n``
that meets a float as ``n / d``, the correctly rounded float of
``Fraction(n, d)``; so every float, and the order it is summed in, is the
one plain per-entry arithmetic would give.

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
from dataclasses import dataclass
from fractions import Fraction

FERMION = "fermion"
BOSON = "boson"

_EMPTY = {}  # the column of a zero operator; read, never written


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _is_exact(x):
    return isinstance(x, (int, Fraction))


def _twice_floor(level):
    """The largest twice-level at or below ``level``."""
    return math.floor(2 * level)


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


class FockState:
    """Occupation configuration: creation mode values in canonical order.

    ``twice`` holds the values doubled, as ints, and ``twice_level`` the
    level doubled; ``occupied`` and ``level`` give them back as Fractions.
    States compare and hash by (species, twice) and are never mutated.
    """

    __slots__ = ("species", "twice", "twice_level", "parity")

    def __init__(self, species, occupied):
        twice = []
        for v in occupied:
            twice.append(_twice_mode(species, v))
            if twice[-1] >= 0:
                raise ValueError("occupied entries must be creation (negative) values")
        self._set(species, tuple(twice))

    @classmethod
    def from_twice(cls, species, twice):
        state = cls.__new__(cls)
        state._set(species, twice)
        return state

    def _set(self, species, twice):
        if list(twice) != sorted(twice):
            raise ValueError("occupied list must be in canonical ascending order")
        if species == FERMION and len(set(twice)) != len(twice):
            raise ValueError("fermionic occupations must be distinct")
        self.species = species
        self.twice = twice
        self.twice_level = -sum(twice)
        self.parity = len(twice) % 2 if species == FERMION else 0

    @property
    def occupied(self):
        return tuple(Fraction(t, 2) for t in self.twice)

    @property
    def level(self):
        return Fraction(self.twice_level, 2)

    def __eq__(self, other):
        if not isinstance(other, FockState):
            return NotImplemented
        return self.species == other.species and self.twice == other.twice

    def __hash__(self):
        return hash((self.species, self.twice))

    def __repr__(self):
        if not self.twice:
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
        object.__setattr__(self, "_index", {s.twice: i for i, s in enumerate(self.states)})
        object.__setattr__(self, "twice_levels", tuple(s.twice_level for s in self.states))
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
        twice = tuple(2 * _as_fraction(v) for v in occupied)
        if any(t.denominator != 1 for t in twice):
            return None
        return self._index.get(tuple(t.numerator for t in twice))

    def index_of_twice(self, twice):
        return self._index.get(twice)

    def level(self, i):
        return Fraction(self.twice_levels[i], 2)

    def parity(self, i):
        return self.states[i].parity

    def __repr__(self):
        return f"StateSpace({self.species}, cutoff={self.cutoff}, dim={self.dimension})"


def twice_mode_values(species, bound):
    """2v for the mode values v of the species with |v| <= bound, in ascending order."""
    positive = range(1 if species == FERMION else 2, _twice_floor(_as_fraction(bound)) + 1, 2)
    return [-t for t in reversed(positive)] + list(positive)


def mode_values(species, bound):
    """Mode values v of the species with |v| <= bound, in ascending order."""
    return [Fraction(t, 2) for t in twice_mode_values(species, bound)]


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
    states = [FockState.from_twice(species, tuple(-p for p in reversed(cfg))) for cfg in configs]
    states.sort(key=lambda s: (s.twice_level, s.twice))
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
    """Sparse level- and parity-graded linear map between truncated spaces.

    ``columns[j]`` maps a domain basis index to ``{row: stored}``.  A
    stored int is a numerator over ``denominator``; a stored float is the
    entry itself.  ``exact`` means that no float entry was ever stored.
    Every entry connects states whose levels differ by exactly
    ``level_shift`` and whose parities differ by ``parity_shift``.
    Mutation is limited to construction time (``add_entry``,
    ``accumulate``, ``normalize``); all algebraic operations return new
    operators (``restrict_columns`` shares the column maps it keeps), so
    built operators are safe to share across callers and threads.
    """

    domain: object
    codomain: object
    level_shift: Fraction
    parity_shift: int
    columns: dict
    denominator: int = 1
    exact: bool = True

    @classmethod
    def zero(cls, domain, codomain, level_shift, parity_shift):
        return cls(domain, codomain, _as_fraction(level_shift), parity_shift % 2, {})

    @classmethod
    def identity(cls, space):
        return cls(space, space, Fraction(0), 0, {j: {j: 1} for j in range(space.dimension)})

    def _like(self, columns, denominator=None, exact=None):
        """An operator with this one's spaces and grading."""
        return GradedOperator(self.domain, self.codomain, self.level_shift, self.parity_shift,
                              columns, self.denominator if denominator is None else denominator,
                              self.exact if exact is None else exact)

    def entry(self, row, col):
        val = self.columns.get(col, _EMPTY).get(row)
        if val is None:
            return Fraction(0) if self.exact else 0
        return Fraction(val, self.denominator) if type(val) is int else val

    def column(self, col):
        """Column ``col`` by value, ``{row: entry}`` in stored order; empty when zero."""
        den = self.denominator
        return {row: Fraction(val, den) if type(val) is int else val
                for row, val in self.columns.get(col, _EMPTY).items()}

    def to_dict(self):
        """Every nonzero column by value, ``{col: {row: entry}}`` in stored order."""
        return {j: self.column(j) for j in self.columns}

    def _numerator(self, value):
        """The numerator that stores the exact ``value``, raising the denominator when needed."""
        if type(value) is int:
            return value * self.denominator
        value = Fraction(value)
        q = value.denominator
        if self.denominator % q:
            den = math.lcm(self.denominator, q)
            self.columns = _scaled(self.columns, den // self.denominator, self.exact)
            self.denominator = den
        return value.numerator * (self.denominator // q)

    def add_entry(self, row, col, value):
        if value == 0:
            return
        if _is_exact(value):
            value = self._numerator(value)
        else:
            self.exact = False
        colmap = self.columns.setdefault(col, {})
        prev = colmap.get(row)
        new = value if prev is None else _add(prev, value, self.denominator)
        if new == 0:
            colmap.pop(row, None)
            if not colmap:
                self.columns.pop(col, None)
        else:
            colmap[row] = new

    def accumulate(self, other, factor=1):
        """Add ``factor * other`` into this operator; construction time only, like add_entry."""
        if not (same_space(self.domain, other.domain) and same_space(self.codomain, other.codomain)):
            raise ValueError("cannot add operators on different spaces")
        if (self.level_shift, self.parity_shift) != (other.level_shift, other.parity_shift):
            raise ValueError("cannot add operators with different grading")
        if not (self.exact and other.exact and _is_exact(factor)):
            self._accumulate_values(other, factor)
            return
        factor = self._numerator(Fraction(factor, other.denominator))
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

    def _accumulate_values(self, other, factor):
        """``accumulate`` with a float on either side.

        An exact factor (or a float +-1) keeps int terms exact, as numerators
        over this operator's raised denominator; every other term is the float
        that per-entry arithmetic gives, and a sum turns float at its first
        float term.
        """
        exact_terms = _is_exact(factor) or factor in (1, -1)
        if exact_terms:
            k = self._numerator(Fraction(factor) / other.denominator)
        self.exact = False
        cols, den, oden, fl = self.columns, self.denominator, other.denominator, float(factor)
        for j, c in other.columns.items():
            acc = cols.setdefault(j, {})
            for row, val in c.items():
                if type(val) is not int:
                    term = val if factor == 1 else -val if factor == -1 else fl * val
                elif exact_terms:
                    term = val if k == 1 else -val if k == -1 else k * val
                else:
                    term = fl * (val / oden)
                prev = acc.get(row)
                s = term if prev is None else _add(prev, term, den)
                if s:
                    acc[row] = s
                else:
                    acc.pop(row, None)
            if not acc:
                del cols[j]

    def normalize(self):
        """Divide the numerators and the denominator by their gcd; returns the operator."""
        if not self.exact or self.denominator == 1:
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
        if not same_space(other.codomain, self.domain):
            raise ValueError("operator spaces do not compose")
        if not (self.exact and other.exact):
            return self._matmul_values(other)
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
        return self._product(other, cols, self.denominator * other.denominator, True)

    def _matmul_values(self, other):
        """``self @ other`` with a float on either side.

        int x int terms stay numerators over the product denominator; a term
        that meets a float reads the int side as ``n / d``, which is the float
        of ``Fraction(n, d)``, so every float and every sum order is the one
        per-entry arithmetic gives.
        """
        da, db = self.denominator, other.denominator
        den = da * db
        left = self.columns
        cols = {}
        for j, mid in other.columns.items():
            acc = {}
            for m, v1 in mid.items():
                exact1 = type(v1) is int
                f1 = v1 / db if exact1 else v1
                for row, v2 in left.get(m, _EMPTY).items():
                    if type(v2) is not int:
                        t = v2 * f1
                    elif exact1:
                        t = v2 * v1
                    else:
                        t = v2 / da * v1
                    prev = acc.get(row)
                    s = t if prev is None else _add(prev, t, den)
                    if s:
                        acc[row] = s
                    else:
                        acc.pop(row, None)
            if acc:
                cols[j] = acc
        return self._product(other, cols, den, False)

    def _product(self, other, columns, denominator, exact):
        return GradedOperator(other.domain, self.codomain,
                              self.level_shift + other.level_shift,
                              (self.parity_shift + other.parity_shift) % 2, columns,
                              denominator, exact)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        """self + sign * other, for sign +1 or -1."""
        out = self._like({j: dict(c) for j, c in self.columns.items()})
        out.accumulate(other, sign)
        return out

    def __mul__(self, scalar):
        if scalar == 0:
            return self._like({}, 1, self.exact and _is_exact(scalar))
        if not _is_exact(scalar):
            # a float scalar makes every entry a float
            den = self.denominator
            cols = {j: {r: v / den * scalar if type(v) is int else v * scalar for r, v in c.items()}
                    for j, c in self.columns.items()}
            return self._like(cols, 1, False)
        scalar = Fraction(scalar)
        num, den = scalar.numerator, self.denominator * scalar.denominator
        if self.exact:
            cols = {j: {r: v * num for r, v in c.items()} for j, c in self.columns.items()}
        else:
            fl = float(scalar)
            cols = {j: {r: v * num if type(v) is int else v * fl for r, v in c.items()}
                    for j, c in self.columns.items()}
        return self._like(cols, den)

    __rmul__ = __mul__

    def restrict_columns(self, max_level):
        """The operator on the domain states at level <= max_level, zero above.

        A check that reads only those columns of a product A @ B needs only
        the same columns of B.  The column maps are shared, not copied.
        """
        top, levels = _twice_floor(max_level), self.domain.twice_levels
        return self._like({j: c for j, c in self.columns.items() if levels[j] <= top})

    def max_abs_entry(self, max_col_level=None):
        top = None if max_col_level is None else _twice_floor(max_col_level)
        levels = self.domain.twice_levels
        kept = [c for j, c in self.columns.items() if top is None or levels[j] <= top]
        if not self.exact:
            return _max_abs_values(kept, self.denominator)
        best = 0
        for c in kept:
            for val in c.values():
                a = abs(val)
                if a > best:
                    best = a
        return Fraction(best, self.denominator)


def _scaled(columns, k, exact):
    """``columns`` with every int numerator multiplied by ``k``; floats are kept."""
    if exact:
        return {j: {r: v * k for r, v in c.items()} for j, c in columns.items()}
    return {j: {r: v * k if type(v) is int else v for r, v in c.items()} for j, c in columns.items()}


def _add(x, y, den):
    """The sum of two stored numbers over ``den``; a float reads an int side as ``n / den``."""
    if type(x) is int:
        return x + y if type(y) is int else x / den + y
    return x + y / den if type(y) is int else x + y


def _max_abs_values(columns, den):
    """The largest |entry| of columns holding ints over ``den`` and floats, as stored.

    The first such entry in stored order wins a tie between a float and an
    int; with no nonzero entry the result is the int 0.
    """
    top, fbest = 0, 0.0
    for c in columns:
        for val in c.values():
            if type(val) is int:
                if val > top or -val > top:
                    top = abs(val)
            elif abs(val) > fbest:
                fbest = abs(val)
    best = Fraction(top, den)
    if best != fbest:
        return best if best > fbest else fbest
    if not top:
        return 0
    for c in columns:
        for val in c.values():
            if abs(val) == (top if type(val) is int else fbest):
                return best if type(val) is int else fbest


def join_columns(parts):
    """Operators on one pair of spaces, with one grading and disjoint columns, as one operator.

    Columns come in ascending order, with the int numerators over the lcm of
    the denominators, reduced by the gcd when every part is exact.
    """
    first = parts[0]
    for p in parts:
        if not (same_space(p.domain, first.domain) and same_space(p.codomain, first.codomain)
                and (p.level_shift, p.parity_shift) == (first.level_shift, first.parity_shift)):
            raise ValueError("cannot join operators on different spaces or gradings")
    den = math.lcm(*(p.denominator for p in parts))
    cols = {}
    for p in parts:
        k = den // p.denominator
        cols.update(p.columns if k == 1 else _scaled(p.columns, k, p.exact))
    return first._like(dict(sorted(cols.items())), den, all(p.exact for p in parts)).normalize()


@functools.cache
def mode_operator(space, value):
    """Matrix of b_s / a_n on a truncated space (entries outside the cutoff dropped).

    Built once per (space, value) and shared; callers must not mutate it.
    """
    twice = _twice_mode(space.species, value)
    parity, act = (1, _apply_fermion) if space.species == FERMION else (0, _apply_boson)
    cols = {}
    for j, st in enumerate(space.states):
        res = act(twice, st.twice)
        if res is None:
            continue
        coeff, occ = res
        row = space.index_of_twice(occ)
        if row is not None:
            cols[j] = {row: coeff}
    return GradedOperator(space, space, Fraction(-twice, 2), parity, cols)


# ---------------------------------------------------------------------------
# graded tensor products

@dataclass(frozen=True)
class ProductSpace:
    """Truncated graded tensor product of two factor spaces (total level <= cutoff)."""

    left: StateSpace
    right: StateSpace
    cutoff: Fraction
    pairs: tuple = None

    def __post_init__(self):
        left, right = self.left.twice_levels, self.right.twice_levels
        if self.pairs is None:
            top = _twice_floor(self.cutoff)
            pairs = [(i, j)
                     for i in range(self.left.dimension)
                     for j in range(self.right.dimension)
                     if left[i] + right[j] <= top]
            pairs.sort(key=lambda ij: (left[ij[0]] + right[ij[1]], ij[0], ij[1]))
            object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "_index", {p: n for n, p in enumerate(self.pairs)})
        object.__setattr__(self, "twice_levels", tuple(left[i] + right[j] for i, j in self.pairs))
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
        return Fraction(self.twice_levels[n], 2)

    def parity(self, n):
        i, j = self.pairs[n]
        return (self.left.parity(i) + self.right.parity(j)) % 2


def tensor_space(left, right, cutoff):
    return ProductSpace(left, right, _as_fraction(cutoff))


def graded_tensor(op, position, pspace):
    """Embed a factor operator into the product space with the Koszul sign.

    An operator of odd parity acting on the right factor picks up
    (-1)^(parity of the left factor state); left-factor operators carry no
    sign.  The stored numbers are copied over the factor's denominator.
    """
    if position not in ("left", "right"):
        raise ValueError("position must be 'left' or 'right'")
    index, cols = pspace._index, {}
    for n, (i, j) in enumerate(pspace.pairs):
        if position == "left":
            col = {m: val for row, val in op.columns.get(i, _EMPTY).items()
                   if (m := index.get((row, j))) is not None}
        else:
            sign = -1 if (op.parity_shift and pspace.left.parity(i)) else 1
            col = {m: sign * val for row, val in op.columns.get(j, _EMPTY).items()
                   if (m := index.get((i, row))) is not None}
        if col:
            cols[n] = col
    return GradedOperator(pspace, pspace, op.level_shift, op.parity_shift, cols,
                          op.denominator, op.exact)


def gram_diagonal(space):
    """Norms squared of the basis states under b_s^dag = b_{-s}, a_n^dag = a_{-n}.

    Fermionic states are orthonormal; a bosonic mode occupied n times at
    value -k contributes n! * k^n.
    """
    out = []
    for st in space.states:
        g = 1
        if space.species == BOSON:
            run = {}
            for t in st.twice:
                run[t] = run.get(t, 0) + 1
            for t, n in run.items():
                for r in range(1, n + 1):
                    g *= r * (-t // 2)
        out.append(Fraction(g))
    return out


def invert_graded(op):
    """Inverse of a level- and parity-preserving operator, block by block.

    A level block with no float entry is inverted exactly, by fraction-free
    Gauss-Jordan elimination on its int numerators (Bareiss); a block with a
    float entry by Gauss-Jordan with partial pivoting on its values.
    Raises ValueError if any level block is singular.
    """
    if op.level_shift != 0 or op.parity_shift != 0:
        raise ValueError("only grading-preserving operators are invertible in place")
    space = op.domain
    blocks = {}
    for n, level in enumerate(space.twice_levels):
        blocks.setdefault(level, []).append(n)
    parts = []
    for level, idx in blocks.items():
        stored = [[op.columns.get(c, _EMPTY).get(r, 0) for c in idx] for r in idx]
        if all(type(x) is int for row in stored for x in row):
            part = _invert_exact_block(space, idx, stored, op.denominator)
        else:
            part = _invert_value_block(space, idx, [[op.entry(r, c) for c in idx] for r in idx])
        if part is None:
            raise ValueError(f"singular level block at level {Fraction(level, 2)}")
        parts.append(part)
    return join_columns(parts)


def _invert_exact_block(space, idx, a, den):
    """The inverse of the block ``a / den`` on the states ``idx``, or None when singular.

    Fraction-free Gauss-Jordan (Bareiss) turns ``[a | 1]`` into
    ``[p 1 | p a^-1]`` on ints, every division exact; then the block's
    inverse is ``den a^-1``, with the numerators ``den p a^-1`` over ``p``.
    """
    k = len(a)
    m = [row + [int(i == r) for i in range(k)] for r, row in enumerate(a)]
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        top = m[col]
        p = top[col]
        for r in range(k):
            if r != col:
                f = m[r][col]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], top)]
        prev = p
    if p < 0:
        p, den = -p, -den
    cols = {}
    for ci, c in enumerate(idx):
        col = {r: m[ri][k + ci] * den for ri, r in enumerate(idx) if m[ri][k + ci]}
        if col:
            cols[c] = col
    return GradedOperator(space, space, Fraction(0), 0, cols, p).normalize()


def _invert_value_block(space, idx, a):
    """The inverse of the block of values ``a`` on the states ``idx``, or None when singular."""
    k = len(idx)
    # dense Gauss-Jordan, pivoting on the largest |entry| of each column
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
            return None
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
    inv = GradedOperator.zero(space, space, 0, 0)
    for ci, c in enumerate(idx):
        for ri, r in enumerate(idx):
            inv.add_entry(r, c, b[ri][ci])
    return inv
