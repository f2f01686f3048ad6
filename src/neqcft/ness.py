"""Symbolic field dynamics across the impurity and steady-state averages.

Fields are formal products of local factors with positions affine in the
symbols x, t.  The engine implements exactly the symmetric configurations
needed for the transport formulas: fields placed at +x and -x (x > 0),
evolved through the case split t < x versus t > x, and the stationary
scattering map relating the coupled and decoupled dynamics,

    S[phi(x)]   = phi(x)                      for chiral fields at x < 0,
    S[phibar(x)] = phibar(x)                  for anti-chiral fields at x > 0,

with the complementary cases rotated into the opposite chirality on the
mirror point.  Coefficients are exact sympy scalars; for a symbolic angle
they carry cos(alpha), sin(alpha).  Every coefficient is brought to one
exact normal form (see ``canonical``): expanded, with the Pythagorean
relation applied as the rewrite sin(alpha)^2 -> 1 - cos(alpha)^2, over one
reduced denominator; ``cancel`` runs only where that changes something.  The
form is memoized for the life of the process.  It decides zero, and a report
prints it for a scalar (a current, a weight sum); a field expression prints
each coefficient that holds alpha as ``sp.trigsimp`` of it, the short trig
form (``FieldExpression.__str__``), and only when the report is written.

The stress tensor is handled through its fermion bilinear form,
T = -(i/2) (d psi) psi and Tbar = +(i/2) (d psibar) psibar, each factor
transforming individually; recognized bilinears are folded back into
stress factors before taking averages.  Fermion reordering inside a term
follows the same transposition-sign convention as the matrix layer.

Every function returns values: field expressions, coefficients and
currents as exact sympy scalars.  The command line front end turns them
into reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import sympy as sp

X = sp.Symbol("x", positive=True)
T = sp.Symbol("t", positive=True)
T_LEFT = sp.Symbol("T_l", positive=True)
T_RIGHT = sp.Symbol("T_r", positive=True)
ALPHA = sp.Symbol("alpha", real=True)

BEFORE = "t<x"   # fields have not reached the impurity
AFTER = "t>x"    # fields have crossed

KNOWN_NAMES = ("psi", "T")
_MIRROR = {"l": "r", "r": "l"}


class UnsupportedFieldError(ValueError):
    """Field name or factor that the scattering and evolution rules do not cover."""


class RegimeError(ValueError):
    """Configuration outside the supported symmetric regime."""


class UnsupportedExpressionError(ValueError):
    """Expression outside the class the averages are defined for."""


# central charge of the Majorana fermion on either side of the impurity
MAJORANA_C = sp.Rational(1, 2)


def rewrite_squares(expr, base, square):
    """Expand ``expr`` with every power base^n, n >= 2, written as base^(n mod 2) square^(n div 2).

    ``square`` is what base^2 equals and must not contain ``base``; the
    result then holds ``base`` at most linearly in every term.
    """
    expr = sp.expand(expr)
    powers = {p: base ** (p.exp % 2) * square ** (p.exp // 2)
              for p in expr.atoms(sp.Pow)
              if p.base == base and p.exp.is_Integer and p.exp >= 2}
    return sp.expand(expr.xreplace(powers)) if powers else expr


@functools.lru_cache(maxsize=None, typed=True)
def canonical(expr):
    """Exact normal form of a coefficient: zero if and only if it vanishes.

    The expression is expanded with the Pythagorean relation applied as the
    rewrite sin(alpha)^2 -> 1 - cos(alpha)^2, so sin(alpha) enters at most
    linearly and no zero hides behind it.  The result is put over one
    reduced denominator, as ``cancel`` does, and ``factor_terms`` pulls out
    the common content.  Reports print this form for a scalar;
    ``FieldExpression`` prints ``sp.trigsimp`` of it for a coefficient that
    holds alpha.

    An expanded polynomial with real exact coefficients and rational
    denominators is already what ``cancel`` returns, so ``cancel`` runs only
    where a term's denominator is more than a rational number (a rational
    function of k in ``su2k``, a symbolic temperature in
    ``entropy_production``) or a coefficient is a Float or complex: there
    ``cancel`` turns every coefficient into a Float, or clears the
    denominator of a complex one, (1 + I/2) -> (2 + I)/2.  Results are
    memoized; sympy equality is structural, so ``2.0*x`` and ``2*x`` keep
    separate entries.
    """
    expr = rewrite_squares(expr, sp.sin(ALPHA), 1 - sp.cos(ALPHA) ** 2)
    if expr.has(sp.Float, sp.I) or any(not sp.fraction(term)[1].is_Rational
                                       for term in sp.Add.make_args(expr)):
        expr = sp.cancel(expr)
    return sp.factor_terms(expr)


@dataclass(frozen=True)
class LocalField:
    """One local factor: name, side, chirality flag, derivative order, position."""

    name: str
    side: str
    bar: bool = False
    deriv: int = 0
    position: object = X

    def __post_init__(self):
        if self.name not in KNOWN_NAMES:
            raise UnsupportedFieldError(f"unknown field name {self.name!r}")
        if self.side not in ("l", "r"):
            raise ValueError(f"side must be 'l' or 'r', got {self.side!r}")
        if self.deriv < 0:
            raise ValueError("derivative order must be >= 0")
        object.__setattr__(self, "position", sp.expand(sp.sympify(self.position)))

    @property
    def parity(self):
        return 1 if self.name == "psi" else 0

    def shifted(self, delta):
        return replace(self, position=sp.expand(self.position + delta))

    @functools.cached_property
    def _sort_key(self):
        # spatial order first (positions are affine in x, t with t > x > 0 in the
        # crossed regime; the sample point fixes a deterministic total order)
        val = self.position.subs({X: 1, T: sp.sqrt(2)})
        return (sp.default_sort_key(val), self.side, self.bar, self.name)

    def __str__(self):
        base = self.name + ("bar" if self.bar else "")
        d = "d" * self.deriv
        return f"{d}{base}^{self.side}({self.position})"


@dataclass(frozen=True)
class FieldExpression:
    """Linear combination of ordered products of local fields."""

    terms: tuple  # of (coeff, factors)

    @classmethod
    def from_field(cls, f):
        return cls(((sp.Integer(1), (f,)),))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls, coeff=1):
        return cls(((sp.sympify(coeff), ()),))

    def __add__(self, other):
        return FieldExpression(self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = sp.sympify(c)
        return FieldExpression(tuple((c * k, fs) for k, fs in self.terms))

    def product(self, other):
        out = []
        for c1, f1 in self.terms:
            for c2, f2 in other.terms:
                out.append((c1 * c2, f1 + f2))
        return FieldExpression(tuple(out))

    def map_factors(self, fn):
        """Extend a single-factor linear map multiplicatively over products."""
        out = FieldExpression.zero()
        for coeff, factors in self.terms:
            piece = FieldExpression.one(coeff)
            for f in factors:
                piece = piece.product(fn(f))
            out = out + piece
        return out

    def normalize(self):
        """Canonically order factors (with fermion signs), merge, drop zero coefficients."""
        merged = {}
        for coeff, factors in self.terms:
            sign, key = _graded_sort(factors)
            merged[key] = merged.get(key, sp.Integer(0)) + sign * coeff
        terms = []
        for factors, coeff in merged.items():
            c = canonical(coeff)
            if c != 0:
                terms.append((c, factors))
        terms.sort(key=lambda t: tuple(str(f) for f in t[1]))
        return FieldExpression(tuple(terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for coeff, factors in self.terms:
            fs = "*".join(str(f) for f in factors) if factors else "1"
            # the normal form keeps sin(alpha) linear; print the short trig form.
            # Only the report writer formats a field expression, so a report
            # that is never printed runs no trigsimp
            if coeff.has(ALPHA):
                coeff = sp.trigsimp(coeff)
            parts.append(f"({coeff})*{fs}")
        return " + ".join(parts)


def _group_key(f):
    # factors sharing this key are never reordered (same-point same-field
    # products carry a contraction and must keep their given order); sympy
    # equality of the positions is structural, as srepr equality is
    return (f.side, f.bar, f.name, f.position)


def _graded_sort(factors):
    fs = list(factors)
    sign = 1
    # insertion sort; swapping two odd factors with distinct group keys
    # flips the sign, equal group keys are never swapped
    for i in range(1, len(fs)):
        j = i
        while j > 0:
            a, b = fs[j - 1], fs[j]
            if _group_key(a) == _group_key(b) or a._sort_key <= b._sort_key:
                break
            fs[j - 1], fs[j] = b, a
            if a.parity and b.parity:
                sign = -sign
            j -= 1
    return sign, tuple(fs)


# ---------------------------------------------------------------------------
# stress tensor as a fermion bilinear

def stress(side, position, bar=False):
    return LocalField("T", side, bar=bar, position=position)


def fermion(side, position, bar=False, deriv=0):
    return LocalField("psi", side, bar=bar, deriv=deriv, position=position)


def expand_stress(expr):
    """Replace stress factors by their bilinear form at the same point."""

    def fn(f):
        if f.name != "T":
            return FieldExpression.from_field(f)
        dpsi = fermion(f.side, f.position, bar=f.bar, deriv=1)
        psi = fermion(f.side, f.position, bar=f.bar)
        coeff = sp.I / 2 if f.bar else -sp.I / 2
        return FieldExpression(((coeff, (dpsi, psi)),))

    return expr.map_factors(fn)


def collect_stress(expr):
    """Fold recognized (d psi) psi bilinears at one point back into stress factors."""
    out = []
    for coeff, factors in expr.terms:
        if len(factors) == 2:
            a, b = factors
            if (_group_key(a) == _group_key(b) and a.name == "psi"
                    and a.deriv == 1 and b.deriv == 0):
                k = coeff * (-2 * sp.I) if a.bar else coeff * (2 * sp.I)
                out.append((sp.expand(k), (stress(a.side, a.position, bar=a.bar),)))
                continue
        out.append((coeff, factors))
    return FieldExpression(tuple(out)).normalize()


# ---------------------------------------------------------------------------
# scattering data

def theta_pair(theta):
    """(cos, sin) from a BogoliubovSpec, a pair, or None for the symbolic angle."""
    if theta is None:
        return sp.cos(ALPHA), sp.sin(ALPHA)
    if hasattr(theta, "cos_a"):
        return sp.sympify(theta.cos_a), sp.sympify(theta.sin_a)
    c, s = theta
    return sp.sympify(c), sp.sympify(s)


def _require_symmetric(f):
    pos = sp.expand(f.position)
    want = -X if f.side == "l" else X
    if pos != want:
        raise RegimeError(
            f"field {f} is outside the supported symmetric configuration "
            f"(left fields at -x, right fields at +x)")


def _outgoing(f):
    """Whether ``f`` moves away from the impurity: chiral on the left, anti-chiral on the right."""
    return f.bar == (f.side == "r")


def _reflection_sign(f):
    """(-1)^deriv for a chiral factor, minus that for an anti-chiral one."""
    return (-1) ** (f.deriv + f.bar)


def evolve(expr, t, theta, regime=AFTER):
    """Ballistic evolution of psi factors with scattering on the impurity.

    A chiral factor moves by shift = -t, an anti-chiral one by +t.  In the
    crossed regime (t > x) a factor that moves toward the impurity (one
    that is not ``_outgoing``) reaches it and scatters by the rotation
    theta (see theta_pair): the transmitted factor keeps its chirality,
    goes to the other side and sits at position + shift, with weight cos;
    the reflected one flips chirality, stays on its side and sits at
    -(position + shift), with weight +-(-1)^deriv sin, + for a chiral
    factor.  The two incoming cases are mirror images under x -> -x.
    """
    if regime not in (BEFORE, AFTER):
        raise RegimeError(f"unknown regime {regime!r}")
    t = sp.sympify(t)
    c, s = theta_pair(theta)

    def fn(f):
        if f.name == "T":
            raise UnsupportedFieldError("expand stress factors before evolving")
        _require_symmetric(f)
        shift = t if f.bar else -t
        if _outgoing(f) or regime == BEFORE:
            return FieldExpression.from_field(f.shifted(shift))
        position = f.position + shift
        trans = replace(f, side=_MIRROR[f.side], position=position)
        refl = replace(f, bar=not f.bar, position=-position)
        return FieldExpression(((c, (trans,)), (_reflection_sign(f) * s, (refl,))))

    return expr.map_factors(fn).normalize()


def apply_smatrix(expr, theta):
    """Stationary scattering map relating coupled and decoupled dynamics.

    Chiral fields at x < 0 and anti-chiral fields at x > 0 pass through
    (see ``_outgoing``); the complementary cases are rotated by the angle
    between the defect and the decoupled dynamics, which is the pure
    reflection (0, 1): the field keeps weight sin(alpha), and its partner
    flips chirality and side, sits at the mirror point and has weight
    -+(-1)^deriv cos(alpha), - for a chiral field.  So psi^r(x) maps to
    sin(alpha) psi^r(x) - cos(alpha) psibar^l(-x).  For the pure reflection
    itself the map is the identity.
    """
    c, s = theta_pair(theta)
    expr = expand_stress(expr)

    def fn(f):
        if _outgoing(f):
            return FieldExpression.from_field(f)
        partner = replace(f, side=_MIRROR[f.side], bar=not f.bar, position=-f.position)
        return FieldExpression(((s, (f,)), (-_reflection_sign(f) * c, (partner,))))

    return collect_stress(expr.map_factors(fn))


# ---------------------------------------------------------------------------
# averages in the two-temperature product state

@dataclass(frozen=True)
class GibbsWeights:
    """Temperatures of the decoupled halves (natural units), as sympy values.

    Each field is sympified once, here, so every function reads it as
    given: a Fraction becomes a Rational, a float a Float.  A value that
    sympy knows to be negative is refused, a symbol of unknown sign is
    not.  Zero is allowed as a ground-state limit; entropy production needs
    strictly positive temperatures.
    """

    t_left: object = T_LEFT
    t_right: object = T_RIGHT

    def __post_init__(self):
        for name in ("t_left", "t_right"):
            value = sp.sympify(getattr(self, name))
            if value.is_negative:
                raise ValueError("temperatures must be >= 0")
            object.__setattr__(self, name, value)


# the two-temperature state with both temperatures symbolic
SYMBOLIC = GibbsWeights()


def stress_average(c, temperature):
    """Thermal average <T> = pi c T^2 / 12 of one stress factor."""
    return sp.pi * c / 12 * temperature ** 2


def expectation(expr, weights=SYMBOLIC):
    """Average of stress factors and mismatched fermion bilinears.

    Stress factors contribute stress_average(MAJORANA_C, T) for their
    side; products of fermions at mismatched points or sides average to
    zero by parity of the Gaussian state; anything else is outside the
    supported class.
    """
    expr = collect_stress(expr.normalize())
    total = sp.Integer(0)
    for coeff, factors in expr.terms:
        if not factors:
            total += coeff
            continue
        if len(factors) == 1 and factors[0].name == "T":
            temp = weights.t_left if factors[0].side == "l" else weights.t_right
            total += coeff * stress_average(MAJORANA_C, temp)
            continue
        if all(f.name == "psi" for f in factors):
            if len(factors) % 2 == 1:
                continue  # odd fermion number averages to zero
            if len(factors) == 2:
                a, b = factors
                if _group_key(a) == _group_key(b):
                    raise UnsupportedExpressionError(
                        f"coincident-point pair {a}, {b} was not recognized as a stress factor")
                continue  # mismatched pair: zero by Gaussian parity per side
            raise UnsupportedExpressionError("only bilinear fermion products are supported")
        raise UnsupportedExpressionError(
            f"term with factors {[str(f) for f in factors]} is outside the averaging class")
    return canonical(total)


def energy_current(theta, weights=SYMBOLIC):
    """Steady energy current, computed by scattering the momentum density.

    Evaluates the average of S[T(x) - Tbar(x)] with the fields placed to
    the right of the impurity.
    """
    p = (FieldExpression.from_field(stress("r", X))
         - FieldExpression.from_field(stress("r", X, bar=True)))
    scattered = apply_smatrix(p, theta)
    return expectation(scattered, weights)


def closed_form_current(theta, weights=SYMBOLIC):
    """Reference closed form (pi/24) cos(alpha)^2 (T_l^2 - T_r^2).

    That is <T> at c = 1/2 on each side times T_dc = cos(alpha)^2.
    """
    cos_a = theta_pair(theta)[0]
    return cos_a ** 2 * (stress_average(MAJORANA_C, weights.t_left)
                         - stress_average(MAJORANA_C, weights.t_right))


# double-precision rounding a current may carry, relative to the thermal
# averages it is summed from
CURRENT_REL_TOL = 1e-12


def _largest_coefficient(value):
    """The largest magnitude of a numeric coefficient in the expanded ``value``."""
    return max(abs(term.as_coeff_Mul()[0]) for term in sp.Add.make_args(sp.expand(value)))


def current_matches(j_e, ref, weights=SYMBOLIC):
    """Whether the current ``j_e`` equals its closed form ``ref``.

    Exact and symbolic inputs leave an exact residue, which must vanish.  A
    Float input leaves rounding, and its size is that of the thermal
    averages the current is summed from, not that of the current, which
    cancels near equal temperatures or pure reflection.  So each coefficient
    of the residue must be within ``CURRENT_REL_TOL`` of the largest
    coefficient of <T>_l + <T>_r at c = 1, a bound on every central charge
    here.
    """
    residue = canonical(j_e - ref)
    if not residue.has(sp.Float):
        return residue == 0
    scale = stress_average(1, weights.t_left) + stress_average(1, weights.t_right)
    return bool(_largest_coefficient(residue) <= CURRENT_REL_TOL * _largest_coefficient(scale))


def entropy_production(j_e, weights=SYMBOLIC):
    """Entropy production rate (1/T_r - 1/T_l) J_E.

    A temperature that sympy knows to be zero or negative raises
    ValueError: the rate would be an infinity or nan.  A positive symbol,
    or one of unknown sign, passes.
    """
    tl, tr = weights.t_left, weights.t_right
    if tl.is_nonpositive or tr.is_nonpositive:
        raise ValueError("entropy production needs strictly positive temperatures")
    return canonical((1 / tr - 1 / tl) * j_e)


def check_global_continuity(theta=None, regime=AFTER):
    """Verify T(x,t) + Tbar(-x,t) = T(x-t) + Tbar(-x+t) by symbolic cancellation."""
    lhs = (expand_stress(FieldExpression.from_field(stress("r", X)))
           + expand_stress(FieldExpression.from_field(stress("l", -X, bar=True))))
    lhs = evolve(lhs, T, theta, regime=regime)
    # the chiral factor ends up on the left once it has crossed, else it stays right
    chiral, antichiral = ("l", "r") if regime == AFTER else ("r", "l")
    rhs = (FieldExpression.from_field(stress(chiral, X - T))
           + FieldExpression.from_field(stress(antichiral, T - X, bar=True)))
    rhs = expand_stress(rhs).normalize()
    # normalize drops every coefficient that is exactly zero
    return not (lhs - rhs).normalize().terms


def stress_coefficients(expr):
    """Coefficients of the stress factors in a normalized expression."""
    out = {}
    for coeff, factors in collect_stress(expr).terms:
        if len(factors) == 1 and factors[0].name == "T":
            f = factors[0]
            key = (f.side, f.bar, sp.srepr(f.position))
            out[key] = out.get(key, sp.Integer(0)) + coeff
    return out
