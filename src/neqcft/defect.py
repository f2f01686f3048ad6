"""Defect maps on the product of two chiral fermion Fock spaces.

A point impurity joining two critical Majorana systems scatters the
incoming pair (anti-chiral left, chiral right) into the outgoing pair
(chiral left, anti-chiral right).  On modes the scattering is the rotation

    b^r_s  ->  cos(a) b^l_s + sin(a) br^r_s
    br^l_s ->  cos(a) br^r_s - sin(a) b^l_s

for every half-odd s.  The realization below lives on one concrete product
space F_0 (x) F_1 whose incoming reading is (br^l, b^r) and whose outgoing
reading is (br^r, b^l): factor 0 always hosts the anti-chiral mode family
and factor 1 the chiral one.  Pairing the slots by chirality rather than
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


@dataclass(frozen=True)
class BogoliubovSpec:
    """Rotation angle stored as the exact or floating pair (cos, sin)."""

    cos_a: object
    sin_a: object

    def __post_init__(self):
        c, s = self.cos_a, self.sin_a
        if fock._rational(c) and fock._rational(s):
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

@dataclass
class DefectRealization:
    """Truncated matrix of a defect map, plus the mode map it claims to implement.

    ``mode_map`` is the claimed action on the factor doublet (c^0, c^1):
    image of c^k_s is map[k][0] c^0_s + map[k][1] c^1_s.  Every realization
    makes this claim; a broken Theta (a negative control) keeps the map it
    was built from, so the checks measure how far it misses it.  A Theta
    with a float entry is checked to ``FLOAT_TOL``, an exact one to zero.
    """

    theta: GradedOperator
    mode_map: object

    @property
    def tolerance(self):
        return 0 if self.theta.exact else FLOAT_TOL


@functools.cache
def scattering_space(cutoff):
    """Product of the anti-chiral and chiral fermion spaces, total level <= cutoff.

    Built once per cutoff, so every realization at that cutoff shares it.
    """
    factor = fock.enumerate_basis(FERMION, cutoff)
    return ProductSpace((factor, factor), factor.cutoff)


@functools.cache
def _embedded_mode(space, k, twice):
    """The mode c^k_v of factor ``k``, embedded in the product space, for ``twice`` = 2v."""
    return fock.graded_tensor(fock.mode_operator(space.factors[k], Fraction(twice, 2)), k, space)


def _mode_images(space, twices, matrix):
    """Factor modes embedded in the product space, and their images under ``matrix``.

    Keys are (factor index, 2v) for the mode values v = twices / 2.  The
    image of c^k_v is m[k][0] c^0_v + m[k][1] c^1_v: each embedded mode
    with a nonzero coefficient is accumulated into an empty operator.
    """
    raw = {(k, t): _embedded_mode(space, k, t) for t in twices for k in (0, 1)}
    images = {}
    for k, row in enumerate(matrix):
        for t in twices:
            image = images[(k, t)] = GradedOperator(space, -t, 1, {})
            for f, x in enumerate(row):
                if x:
                    image.accumulate(raw[(f, t)], x)
    return raw, images


@functools.cache
def _generations(space):
    """The product states with k >= 1 modes, one list per k, grouped by leftmost mode.

    Each group is ``(key, [(col, rest), ...])``: ``key`` is the leftmost
    mode (the first factor-0 mode, else the first factor-1 mode) as
    (factor index, 2v), and ``rest`` is the column of the state without
    it, which has k - 1 modes.
    """
    first, second = space.factors
    gens = {}
    for col, (i, j) in enumerate(space.states):
        s0, s1 = first.states[i], second.states[j]
        if s0:
            key, rest = (0, s0[0]), (first.index_of(s0[1:]), j)
        elif s1:
            key, rest = (1, s1[0]), (i, second.index_of(s1[1:]))
        else:
            continue  # the vacuum
        gens.setdefault(len(s0) + len(s1), {}).setdefault(key, []).append(
            (col, space.index_of(rest)))
    return [list(gens[k].items()) for k in sorted(gens)]


def build_mode_automorphism(matrix, cutoff):
    """Vacuum-fixing operator acting on creation modes by the given 2x2 matrix.

    ``matrix`` maps the factor doublet (c^0, c^1): image of c^k_s is
    m[k][0] c^0_s + m[k][1] c^1_s.  Orthogonality is not assumed, so this
    can also build the deliberately broken maps used as negative controls.
    Column (i, j) is the image of its leftmost mode (the first factor-0
    mode, else the first factor-1 mode) applied to the column of the state
    without that mode.
    The columns are made one generation (number of modes) at a time, one
    product per leftmost mode: its image times the operator that sends
    each of its columns to the column of the state without it.
    """
    space = scattering_space(cutoff)
    creation = [t for t in fock.twice_mode_values(FERMION, space.cutoff) if t < 0]
    _, images = _mode_images(space, creation, matrix)
    generation = GradedOperator.identity(space).restrict_columns(0)  # the vacuum is fixed
    parts = [generation]
    for groups in _generations(space):
        prev = generation.columns
        products = []
        for key, cols in groups:
            image = images[key]
            rest = GradedOperator(space, -image.twice_shift, 1,
                                  {col: prev[r] for col, r in cols if r in prev},
                                  generation.denominator, generation.exact)
            products.append(image @ rest)
        generation = fock.join_columns(products)
        parts.append(generation)
    return DefectRealization(fock.join_columns(parts), matrix)


def build_theta_fermion(spec, cutoff):
    """Defect map for the fermion Bogoliubov rotation ``spec``, a BogoliubovSpec."""
    c, s = spec.cos_a, spec.sin_a
    matrix = [[c, -s], [s, c]]  # c^0 -> c c^0 - s c^1, c^1 -> s c^0 + c c^1
    return build_mode_automorphism(matrix, cutoff)


def skewed(real, eps):
    """Deliberately broken copy of ``real``: Theta plus eps at (i + 1, i) for the first 12 columns.

    The negative control of the checks.  Some of these entries, such as
    (1, 0), join states of different level or parity on purpose: the broken
    Theta is not the level- and parity-preserving map it declares.  The sum
    is a new operator, so ``real`` is left as it was.  It keeps the mode map
    it was built from, so the checks measure how far the broken Theta
    misses that rotation.
    """
    theta = real.theta
    skew = GradedOperator(theta.space, theta.twice_shift, theta.parity_shift,
                          {i: {i + 1: eps} for i in range(min(theta.space.dimension - 1, 12))},
                          exact=False)
    return DefectRealization(theta + skew, real.mode_map)


@functools.cache
def total_virasoro(space, n):
    """L_n acting on both factors of the product space (the diagonal action), built once per (space, n)."""
    first, second = (fock.graded_tensor(virasoro.build_virasoro(FERMION, n, f), k, space)
                     for k, f in enumerate(space.factors))
    return first + second


def vacuum_preservation_deviation(real):
    """Largest entry of (Theta - 1)|0>: Theta must fix the vacuum."""
    vacuum = GradedOperator.identity(real.theta.space).restrict_columns(0)
    return (real.theta.restrict_columns(0) - vacuum).max_abs_entry()


def _require_safe_columns(space, safe, what):
    # the level-0 vacuum is in every space, so no column is safe only when safe < 0
    if safe < 0:
        raise ValueError(f"empty safe subspace for {what} at cutoff {space.cutoff}")


def check_intertwining(real, n):
    """Largest entry of Theta (Lbar^l_n + L^r_n) - (L^l_n + Lbar^r_n) Theta on the safe subspace.

    Both sides are the diagonal Virasoro action on the concrete product
    space, so the condition is the vanishing commutator [Theta, L^tot_n].
    The safe subspace is the columns at level <= cutoff - |n| of the
    realization, where L_n does not leave the truncated space.
    """
    space = real.theta.space
    safe = space.cutoff - abs(n)
    _require_safe_columns(space, safe, f"n={n}")
    ltot = total_virasoro(space, n)
    theta = real.theta
    # the products are fresh, so the difference accumulates into the first
    comm = theta @ ltot.restrict_columns(safe)
    comm.accumulate(ltot @ theta.restrict_columns(safe), -1)
    return comm.max_abs_entry()


def check_momentum_continuity(real):
    """Theta applied to (Lbar^l_-2 + L^r_-2)|0x0> must reproduce (L^l_-2 + Lbar^r_-2)|0x0>."""
    space = real.theta.space
    if space.cutoff < 2:
        raise ValueError("cutoff must be >= 2 to host the stress state")
    # the vacuum column of L^tot_-2 is the stress state
    stress = total_virasoro(space, -2).restrict_columns(0)
    return (real.theta @ stress - stress).max_abs_entry() <= real.tolerance


def check_ope_preservation(real):
    """Deviation of the claimed mode images from an algebra automorphism.

    The check is twofold: the images B_s of the modes under the claimed
    map must satisfy the same anticommutation relations as the modes (which
    holds exactly when the map is orthogonal), and the realization must
    implement them, Theta b_s = B_s Theta.  Together these say that
    conjugation by Theta preserves the mode algebra.  No inverse of Theta
    is formed; the group law gives it in closed form, Theta(a)^-1 = Theta(-a).
    """
    space = real.theta.space
    # the modes b_s with |s| <= 3/2, as 2s, and the safe level of each |2s|; the
    # smallest |s| leaves the widest safe subspace
    twices = fock.twice_mode_values(FERMION, Fraction(3, 2))
    safe_of = {abs(t): space.cutoff - Fraction(abs(t), 2) for t in twices}
    _require_safe_columns(space, max(safe_of.values()), "the OPE check on b_s with |s| <= 3/2")
    raw, images = _mode_images(space, twices, real.mode_map)
    theta = real.theta
    dev = 0
    keys = sorted(raw, key=str)
    for i, a in enumerate(keys):
        fa, ta = a
        # the realization must implement the images: Theta b = B Theta
        safe = safe_of[abs(ta)]
        resid = theta @ raw[a].restrict_columns(safe)
        resid.accumulate(images[a] @ theta.restrict_columns(safe), -1)
        dev = max(dev, resid.max_abs_entry())
        # {B_a, B_b} is symmetric in a and b, so each unordered pair is formed once
        for b in keys[i:]:
            fb, tb = b
            safe = safe_of[max(abs(ta), abs(tb))]
            if safe < 0:
                continue
            anti = images[a] @ images[b].restrict_columns(safe)
            anti.accumulate(images[b] @ images[a].restrict_columns(safe))
            if fa == fb and ta + tb == 0:
                anti.accumulate(GradedOperator.identity(space).restrict_columns(safe), -1)
            dev = max(dev, anti.max_abs_entry())
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
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"labels must be distinct, got {list(self.labels)!r}")
        unknown = sorted(set(self.conjugation) - set(self.labels))
        if unknown:
            raise ValueError(f"conjugation names unknown labels {unknown!r}")
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
    always is, so valid rings report at least one solution).  Each
    solution is a dict {label: Fraction(p, q)}, meaning the phase
    exp(2 pi i p / q) with 0 <= p/q < 1.
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
            solutions.append(dict(assign))
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
    return sorted(solutions, key=lambda s: tuple(sorted(s.items())))
