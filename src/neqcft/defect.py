"""Defect maps on the product of two chiral fermion Fock spaces.

A point impurity joining two critical Majorana systems scatters the
incoming pair (anti-chiral left, chiral right) into the outgoing pair
(chiral left, anti-chiral right).  On modes the scattering is the rotation

    b^r_s  ->  cos(a) b^l_s + sin(a) br^r_s
    br^l_s ->  cos(a) br^r_s - sin(a) b^l_s

for every half-odd s.  The realization below lives on one concrete product
space F_A (x) F_B whose incoming reading is (br^l, b^r) and whose outgoing
reading is (br^r, b^l): factor A always hosts the anti-chiral mode family
and factor B the chiral one.  Pairing the slots by chirality rather than
by side is what turns the scattering into a genuine one-parameter rotation
group, Theta(a) Theta(b) = Theta(a+b) and Theta(a)^-1 = Theta(-a), while
reproducing the mode relations above verbatim (at a = 0 the matrix is the
identity, which reads exactly as the pure-transmission relabeling
b^r -> b^l; at a = pi/2 it reads as the pure reflection b^r -> br^r,
br^l -> -b^l).

The map is defined on states through the operator-state correspondence:
it fixes the vacuum and acts on creation modes by the rotation above.
Theta is built one generation (number of modes) at a time: each column is
one mode image applied to the column of the state with one mode fewer.
All checks below compare honest truncated matrices on the safe subspace,
and multiply only its columns.  The product space, the embedded factor
modes and the diagonal Virasoro action are built once per cutoff (or
space) and shared by every realization on it; none of them is mutated.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import fock, virasoro
from .fock import FERMION, GradedOperator, ProductSpace

FLOAT_TOL = 1e-12

ANTI = "left"   # factor A position label inside the product space
CHI = "right"   # factor B


def _is_exact(x):
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class BogoliubovSpec:
    """Rotation angle stored as the exact or floating pair (cos, sin)."""

    cos_a: object
    sin_a: object

    def __post_init__(self):
        c, s = self.cos_a, self.sin_a
        if _is_exact(c) and _is_exact(s):
            object.__setattr__(self, "cos_a", Fraction(c))
            object.__setattr__(self, "sin_a", Fraction(s))
            if self.cos_a ** 2 + self.sin_a ** 2 != 1:
                raise ValueError("cos^2 + sin^2 must equal 1 exactly")
        else:
            if not (math.isfinite(c) and math.isfinite(s)):
                raise ValueError("cos and sin must be finite")
            if abs(float(c) ** 2 + float(s) ** 2 - 1.0) > FLOAT_TOL:
                raise ValueError("cos^2 + sin^2 deviates from 1 beyond tolerance")

    @classmethod
    def from_angle(cls, alpha):
        c, s = math.cos(alpha), math.sin(alpha)
        # snap to the exact axis points so that the headline cases stay exact
        for v, ex in ((0.0, 0), (1.0, 1), (-1.0, -1)):
            if abs(c - v) < 1e-15:
                c = ex
            if abs(s - v) < 1e-15:
                s = ex
        return cls(c, s)

    @property
    def is_exact(self):
        return _is_exact(self.cos_a) and _is_exact(self.sin_a)

    @property
    def mode_matrix(self):
        """Rotation acting on the doublet (b^r_s, br^l_s); orthogonal, det 1."""
        c, s = self.cos_a, self.sin_a
        return [[c, s], [-s, c]]

    def compose(self, other):
        c = self.cos_a * other.cos_a - self.sin_a * other.sin_a
        s = self.sin_a * other.cos_a + self.cos_a * other.sin_a
        return BogoliubovSpec(c, s)

    def inverse(self):
        return BogoliubovSpec(self.cos_a, -self.sin_a)


TRANSMISSION = BogoliubovSpec(1, 0)
REFLECTION = BogoliubovSpec(0, 1)


@dataclass
class DefectRealization:
    """Truncated matrix of a defect map, plus the data it was built from.

    ``mode_map`` is the claimed action on the slot doublet (A, B): image of
    c^A_s is map[0][0] c^A_s + map[0][1] c^B_s and likewise for c^B_s.
    """

    space: ProductSpace
    theta: GradedOperator
    source: object = None
    mode_map: object = None

    @property
    def is_exact(self):
        return isinstance(self.source, BogoliubovSpec) and self.source.is_exact

    @property
    def tolerance(self):
        return 0 if self.is_exact else FLOAT_TOL


@functools.cache
def scattering_space(cutoff):
    """Product of the anti-chiral and chiral fermion spaces, total level <= cutoff.

    Built once per cutoff, so every realization at that cutoff shares it.
    """
    factor = fock.enumerate_basis(FERMION, cutoff)
    return fock.tensor_space(factor, factor, cutoff)


@functools.cache
def _embedded_mode(space, factor, value):
    """The mode c^A_v or c^B_v of one factor, embedded in the product space."""
    if factor == "A":
        return fock.graded_tensor(fock.mode_operator(space.left, value), ANTI, space)
    return fock.graded_tensor(fock.mode_operator(space.right, value), CHI, space)


def _mode_images(space, values, matrix):
    """Factor modes embedded in the product space, and their images under ``matrix``.

    Keys are (factor, value).  The image of c^A_v is
    m[0][0] c^A_v + m[0][1] c^B_v and that of c^B_v is
    m[1][0] c^A_v + m[1][1] c^B_v; without a matrix the images are None.
    """
    raw = {(f, v): _embedded_mode(space, f, v) for v in values for f in ("A", "B")}
    if matrix is None:
        return raw, None
    images = {}
    for (f, v) in raw:
        row = matrix[0] if f == "A" else matrix[1]
        images[(f, v)] = row[0] * raw[("A", v)] + row[1] * raw[("B", v)]
    return raw, images


@functools.cache
def _generations(space):
    """The product states with k >= 1 modes, one list per k, grouped by leftmost mode.

    Each group is ``(key, [(col, rest), ...])``: ``key`` is the leftmost
    mode (the first A mode, else the first B mode) as (factor, value), and
    ``rest`` is the column of the state without it, which has k - 1 modes.
    """
    gens = {}
    for col, (i, j) in enumerate(space.pairs):
        left, right = space.left.states[i].twice, space.right.states[j].twice
        if left:
            key, rest = ("A", left[0]), (space.left.index_of_twice(left[1:]), j)
        elif right:
            key, rest = ("B", right[0]), (i, space.right.index_of_twice(right[1:]))
        else:
            continue  # the vacuum
        gens.setdefault(len(left) + len(right), {}).setdefault(key, []).append(
            (col, space.index_of(rest)))
    return [[((f, Fraction(t, 2)), cols) for (f, t), cols in gens[k].items()]
            for k in sorted(gens)]


def build_mode_automorphism(matrix, cutoff, source=None):
    """Vacuum-fixing operator acting on creation modes by the given 2x2 matrix.

    ``matrix`` maps the factor doublet (A, B): image of c^A_s is
    m[0][0] c^A_s + m[0][1] c^B_s, image of c^B_s is
    m[1][0] c^A_s + m[1][1] c^B_s.  Orthogonality is not assumed, so this
    can also build the deliberately broken maps used as negative controls.
    Column (i, j) is the image of its leftmost mode (the first A mode, else
    the first B mode) applied to the column of the state without that mode.
    The columns are made one generation (number of modes) at a time, one
    product per leftmost mode: its image times the operator that sends
    each of its columns to the column of the state without it.
    """
    space = scattering_space(cutoff)
    creation = [v for v in fock.mode_values(FERMION, space.cutoff) if v < 0]
    _, images = _mode_images(space, creation, matrix)
    generation = GradedOperator.identity(space).restrict_columns(0)  # the vacuum is fixed
    parts = [generation]
    for groups in _generations(space):
        prev = generation.columns
        products = []
        for key, cols in groups:
            image = images[key]
            rest = GradedOperator(space, space, -image.level_shift, 1,
                                  {col: prev[r] for col, r in cols if r in prev},
                                  generation.denominator, generation.exact)
            products.append(image @ rest)
        generation = fock.join_columns(products)
        parts.append(generation)
    return DefectRealization(space, fock.join_columns(parts), source, mode_map=matrix)


def build_theta_fermion(spec, cutoff):
    """Defect map for a fermion Bogoliubov rotation; spec is a BogoliubovSpec or an angle."""
    if not isinstance(spec, BogoliubovSpec):
        spec = BogoliubovSpec.from_angle(float(spec))
    c, s = spec.cos_a, spec.sin_a
    matrix = [[c, -s], [s, c]]  # A -> cA - sB, B -> sA + cB
    return build_mode_automorphism(matrix, cutoff, source=spec)


@functools.cache
def total_virasoro(space, n):
    """L_n acting on both factors of the product space (the diagonal action), built once per (space, n)."""
    return (fock.graded_tensor(virasoro.build_virasoro(FERMION, n, space.left), ANTI, space)
            + fock.graded_tensor(virasoro.build_virasoro(FERMION, n, space.right), CHI, space))


def vacuum_preservation_deviation(real):
    vac = real.space.vacuum_index
    dev = 0
    col = real.theta.column(vac)
    for row, val in col.items():
        want = 1 if row == vac else 0
        dev = max(dev, abs(val - want))
    if vac not in col:
        dev = max(dev, 1)
    return dev


class EmptyCheckError(ValueError):
    """A check whose comparisons would read no column of the truncated space."""


def _require_safe_columns(space, safe, what):
    if not any(space.level(i) <= safe for i in range(space.dimension)):
        raise EmptyCheckError(f"empty safe subspace for {what} at cutoff {space.cutoff}")


def check_intertwining(real, n):
    """Largest entry of Theta (Lbar^l_n + L^r_n) - (L^l_n + Lbar^r_n) Theta on the safe subspace.

    Both sides are the diagonal Virasoro action on the concrete product
    space, so the condition is the vanishing commutator [Theta, L^tot_n].
    The safe subspace is the columns at level <= cutoff - |n| of the
    realization, where L_n does not leave the truncated space.
    """
    space = real.space
    safe = space.cutoff - abs(n)
    _require_safe_columns(space, safe, f"n={n}")
    ltot = total_virasoro(space, n)
    theta = real.theta
    comm = theta @ ltot.restrict_columns(safe) - ltot @ theta.restrict_columns(safe)
    return comm.max_abs_entry(max_col_level=safe)


def check_momentum_continuity(real):
    """Theta applied to (Lbar^l_-2 + L^r_-2)|0x0> must reproduce (L^l_-2 + Lbar^r_-2)|0x0>."""
    space = real.space
    if space.cutoff < 2:
        raise ValueError("cutoff must be >= 2 to host the stress state")
    # the vacuum column of L^tot_-2 is the stress state
    stress = total_virasoro(space, -2).restrict_columns(0)
    return (real.theta @ stress - stress).max_abs_entry() <= real.tolerance


def check_ope_preservation(real):
    """Deviation of the mode images from an algebra automorphism.

    With a claimed mode map the check is twofold: the image combinations
    B_s must satisfy the same anticommutation relations as the modes (which
    holds exactly when the map is orthogonal), and the realization must
    implement them, Theta b_s = B_s Theta.  Without a claimed map (raw or
    corrupted matrices) the conjugated modes are compared directly through
    the exact block inverse.
    """
    space = real.space
    # the modes b_s with |s| <= 3/2; the smallest |s| leaves the widest safe subspace
    values = fock.mode_values(FERMION, Fraction(3, 2))
    _require_safe_columns(space, space.cutoff - min(abs(v) for v in values),
                          "the OPE check on b_s with |s| <= 3/2")
    raw, images = _mode_images(space, values, real.mode_map)
    theta = real.theta
    if images is None:
        inv = fock.invert_graded(theta)
        images = {k: theta @ op @ inv for k, op in raw.items()}
    dev = 0
    keys = sorted(raw, key=str)
    for a in keys:
        # the realization must implement the images: Theta b = B Theta
        safe = space.cutoff - abs(a[1])
        resid = theta @ raw[a].restrict_columns(safe) - images[a] @ theta.restrict_columns(safe)
        dev = max(dev, resid.max_abs_entry(max_col_level=safe))
        for b in keys:
            fa, va = a
            fb, vb = b
            safe = space.cutoff - max(abs(va), abs(vb))
            if safe < 0:
                continue
            anti = (images[a] @ images[b].restrict_columns(safe)
                    + images[b] @ images[a].restrict_columns(safe))
            expect = GradedOperator.zero(space, space, anti.level_shift, anti.parity_shift)
            if fa == fb and va + vb == 0:
                expect = expect + GradedOperator.identity(space)
            dev = max(dev, (anti - expect).max_abs_entry(max_col_level=safe))
    return dev


# ---------------------------------------------------------------------------
# pure reflection phases from the fusion ring

@dataclass(frozen=True)
class FusionRing:
    """Nonzero fusion pattern of a chiral sector algebra, with conjugation."""

    labels: tuple
    identity: str
    pattern: frozenset  # triples (j, k, m) with nonzero structure constant
    conjugation: dict

    def __post_init__(self):
        if self.identity not in self.labels:
            raise ValueError("identity label missing from labels")
        for j in self.labels:
            jj = self.conjugation.get(j)
            if jj is None or jj not in self.labels:
                raise ValueError(f"conjugation undefined for label {j!r}")
            if self.conjugation.get(jj) != j:
                raise ValueError("conjugation must be an involution")
        for t in self.pattern:
            if len(t) != 3 or not set(t) <= set(self.labels):
                raise ValueError(f"fusion triple {list(t)!r} must name three known labels")
        for j in self.labels:
            if (j, self.conjugation[j], self.identity) not in self.pattern:
                raise ValueError(f"(j, jbar, identity) missing from pattern for {j!r}")

    @classmethod
    def from_dict(cls, data):
        """Ring from its JSON form; a malformed document raises ValueError naming the problem."""
        if not isinstance(data, dict):
            raise ValueError(f"a ring must be a JSON object, got {type(data).__name__}")
        missing = [k for k in ("labels", "identity", "fusion", "conjugation") if k not in data]
        if missing:
            raise ValueError(f"ring is missing {', '.join(missing)}")
        if not (isinstance(data["fusion"], list) and isinstance(data["conjugation"], dict)):
            raise ValueError("fusion must be a list of triples and conjugation an object")
        return cls(labels=_labels(data["labels"], "labels"),
                   identity=data["identity"],
                   pattern=frozenset(_labels(t, "fusion triple") for t in data["fusion"]),
                   conjugation=dict(data["conjugation"]))

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _labels(value, what):
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{what} must be a list of label strings, got {value!r}")
    return tuple(value)


def ising_ring():
    return FusionRing(labels=("1", "psi"), identity="1",
                      pattern=frozenset({("1", "1", "1"), ("1", "psi", "psi"),
                                         ("psi", "1", "psi"), ("psi", "psi", "1")}),
                      conjugation={"1": "1", "psi": "psi"})


def z3_parafermion_ring():
    return FusionRing(labels=("1", "psi1", "psi2"), identity="1",
                      pattern=frozenset({("1", "1", "1"),
                                         ("1", "psi1", "psi1"), ("psi1", "1", "psi1"),
                                         ("1", "psi2", "psi2"), ("psi2", "1", "psi2"),
                                         ("psi1", "psi1", "psi2"), ("psi2", "psi2", "psi1"),
                                         ("psi1", "psi2", "1"), ("psi2", "psi1", "1")}),
                      conjugation={"1": "1", "psi1": "psi2", "psi2": "psi1"})


def trivial_ring():
    return FusionRing(labels=("1",), identity="1",
                      pattern=frozenset({("1", "1", "1")}), conjugation={"1": "1"})


BUILTIN_RINGS = {"ising": ising_ring, "z3": z3_parafermion_ring, "trivial": trivial_ring}


@dataclass(frozen=True)
class ReflectionSpec:
    """Unit phases per sector, stored exactly as fractions of a full turn.

    ``zetas[label] = Fraction(p, q)`` means the phase exp(2 pi i p / q).
    """

    zetas: dict

    def __post_init__(self):
        for lbl, ph in self.zetas.items():
            if not isinstance(ph, Fraction) or not (0 <= ph < 1):
                raise ValueError(f"phase for {lbl!r} must be a Fraction in [0, 1)")


def _phase_candidates(max_order):
    vals = set()
    for q in range(1, max_order + 1):
        for p in range(q):
            vals.add(Fraction(p, q))
    return sorted(vals)


def solve_reflection_phases(ring, max_order=24):
    """All phase assignments consistent with the fusion pattern.

    Constraints: zeta_identity = 1, zeta_{jbar} = conj(zeta_j), and
    zeta_j zeta_k = zeta_m on every nonzero triple.  Additively on
    fractions of a turn these are linear conditions mod 1.  Solutions are
    enumerated over roots of unity of order <= max_order; an empty result
    means nothing is consistent within that bound (the all-ones assignment
    always is, so valid rings report at least one solution).
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    labels = [l for l in ring.labels if l != ring.identity]
    candidates = _phase_candidates(max_order)
    solutions = []

    def consistent(assign):
        for j, k, m in ring.pattern:
            if j in assign and k in assign and m in assign:
                if (assign[j] + assign[k]) % 1 != assign[m]:
                    return False
        for j, ph in assign.items():
            jj = ring.conjugation[j]
            if jj in assign and assign[jj] != (-ph) % 1:
                return False
        return True

    def search(i, assign):
        if i == len(labels):
            solutions.append(ReflectionSpec(dict(assign)))
            return
        lbl = labels[i]
        if lbl in assign:
            search(i + 1, assign)
            return
        jj = ring.conjugation[lbl]
        for ph in candidates:
            assign[lbl] = ph
            fixed_conj = False
            if jj != lbl and jj not in assign:
                assign[jj] = (-ph) % 1
                fixed_conj = True
            if consistent(assign):
                search(i + 1, assign)
            if fixed_conj:
                del assign[jj]
            del assign[lbl]

    search(0, {ring.identity: Fraction(0)})
    uniq = {tuple(sorted(s.zetas.items())): s for s in solutions}
    return sorted(uniq.values(), key=lambda s: tuple(sorted(s.zetas.items())))
