"""Polynomials in three generators, in four flavors.

The complexes built by this package live inside polynomial algebras in three
generators x1, x2, x3 which either commute or are odd,

    xi_i xi_j = -xi_j xi_i   for i != j,   but xi_i^2 != 0,

crossed with a choice of S3-equivariance: the symmetric group permutes the
generators either plainly or twisted by the sign character.  That gives four
flavors, written Sym[x], ASym[x], Sym[xi], ASym[xi].

Elements are homogeneous and sparse: a map from exponent triples to integer
coefficients.  Odd monomials are kept in the normal form
xi_1^a xi_2^b xi_3^c.  A word in the odd generators equals its normal form
times -1 exactly when sorting it takes an odd number of transpositions of
distinct generators: xi_2 xi_1 = -xi_1 xi_2, while xi_1 xi_1 = xi_1^2 keeps
its sign, since squares do not vanish.

The mirror involution negates every generator; on odd flavors it extends to
normal-form monomials as an anti-automorphism and acts diagonally:

>>> mirror(Element(SYM_ODD, 1, {(1, 0, 0): 1})).coeffs
{(1, 0, 0): -1}

S3 renames the generators, with one signed rule per monomial: _act is that
rule's only statement, read by permute_variables, orbit, is_admissible,
basis_coordinates, the equivariance check in complexes and the edge-swap
sign in signs, as mirror_sign is read for the reflection sign there.
crossing is the one statement of the odd product's sign, read by Element
multiplication and by the integer product on coordinates in complexes
(_orbit_product), which assembles the differentials and the closed-form
generators.  Symmetrized monomials, written (k1,k2,k3) in the plain flavors
and [k1,k2,k3] in the sign-twisted ones, are the signed S3-orbit sums
normalized to coefficient +1 on the descending-sorted monomial.
is_admissible is the one statement of which of them cancel; orbit and the
admissible bases enumerated here read it.  homology builds the closed-form
generators from the orbits of three kinds of survivors: e2 = (1,1,0),
e3^g = (g,g,g) and Delta e3^(g+1) = [g+3,g+2,g+1], Delta the Vandermonde
element.  Element is kept for the tests' oracles and the text of homology's
problem lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class Flavor:
    """Generator parity plus the S3-equivariance character."""

    odd: bool
    antisymmetric: bool

    def __str__(self):
        stem = "xi" if self.odd else "x"
        return ("ASym[%s]" if self.antisymmetric else "Sym[%s]") % stem


SYM = Flavor(odd=False, antisymmetric=False)
ASYM = Flavor(odd=False, antisymmetric=True)
SYM_ODD = Flavor(odd=True, antisymmetric=False)
ASYM_ODD = Flavor(odd=True, antisymmetric=True)
FLAVORS = (SYM, ASYM, SYM_ODD, ASYM_ODD)

# permutations of {0,1,2}; perm[i] is the image of generator i
S3 = tuple(permutations(range(3)))


def _integral(value, what, least=None):
    """value as an int: the one statement of the integral-input rule.

    An int passes, another number equal to an integer is taken as that int
    (2.0 and 6/3 as 2), and a bool, 1.5, inf, None, "2" or a value below
    `least` raises ValueError naming `what`.
    """
    if type(value) is not int:
        try:
            integral = not isinstance(value, bool) and int(value) == value
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")
    return value


class Element:
    """A homogeneous element of one of the four flavors.

    coeffs maps normal-form exponent triples to nonzero ints.  The degree,
    exponents and coefficients follow _integral (the rational 6/3 is stored
    as 2; 1.5, True or None raise ValueError).  The zero
    element keeps its (flavor, degree) so that degree bookkeeping, and the
    degree-dependent signs downstream, survive cancellation.
    """

    __slots__ = ("flavor", "degree", "coeffs")

    def __init__(self, flavor, degree, coeffs=None):
        degree = _integral(degree, "degree", 0)
        clean = {}
        for mono, coefficient in (coeffs or {}).items():
            k0, k1, k2 = mono
            if not (type(k0) is type(k1) is type(k2) is int and min(mono) >= 0):
                mono = tuple(_integral(k, f"exponent in {mono}", 0) for k in mono)
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} is not of degree {degree}")
            if type(coefficient) is not int:
                coefficient = _integral(coefficient, f"coefficient on {mono}")
            if coefficient:
                clean[mono] = coefficient
        self.flavor = flavor
        self.degree = degree
        self.coeffs = clean

    def is_zero(self):
        return not self.coeffs

    def _check_compatible(self, other):
        if self.flavor != other.flavor:
            raise ValueError(f"flavor mismatch: {self.flavor} vs {other.flavor}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, 0) + c
        return Element(self.flavor, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element(self.flavor, self.degree, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            if self.flavor.odd != other.flavor.odd:
                raise ValueError("cannot multiply commuting and odd elements")
            flavor = Flavor(
                self.flavor.odd,
                self.flavor.antisymmetric != other.flavor.antisymmetric,
            )
            out = {}
            for a, ca in self.coeffs.items():
                for b, cb in other.coeffs.items():
                    mono = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                    term = ca * cb
                    if self.flavor.odd:
                        term *= crossing(a, b)
                    out[mono] = out.get(mono, 0) + term
            return Element(flavor, self.degree + other.degree, out)
        return Element(
            self.flavor, self.degree, {m: other * c for m, c in self.coeffs.items()}
        )

    def __rmul__(self, other):
        if isinstance(other, Element):
            return NotImplemented
        return self * other

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.flavor == other.flavor
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"Element({self.flavor}, {render_element(self)})"


def crossing(a, b):
    """Sign of the odd product of normal-form monomials a and b.

    Bringing a*b to normal form moves each of b's generators left past a's
    higher-index ones, one transposition per pair of generator factors:
    (-1)^(b1 (a2 + a3) + b2 a3), written 0-based below.
    """
    return -1 if (b[0] * (a[1] + a[2]) + b[1] * a[2]) % 2 else 1


def mirror_sign(flavor, mono):
    """Eigenvalue of the mirror involution on a single monomial.

    Commuting flavors: (-1)^degree, the substitution x_i -> -x_i.  Odd
    flavors: the anti-automorphism sending each xi_i to -xi_i comes out
    diagonal on normal-form monomials with sign (-1)^(sum k_i(k_i+1)/2),
    the generator negations plus the word reversal.
    """
    if flavor.odd:
        exponent = sum(k * (k + 1) // 2 for k in mono)
    else:
        exponent = sum(mono)
    return -1 if exponent % 2 else 1


def mirror(f):
    """Negate every generator (an involution, anti-automorphism when odd)."""
    out = {}
    for mono, c in f.coeffs.items():
        out[mono] = c if mirror_sign(f.flavor, mono) > 0 else -c
    return Element(f.flavor, f.degree, out)


def mirror_even_part(f):
    """Project onto the +1 eigenspace of the mirror involution.

    The mirror is diagonal on normal-form monomials, so this keeps the
    monomials of mirror sign +1.
    """
    return Element(
        f.flavor,
        f.degree,
        {m: c for m, c in f.coeffs.items() if mirror_sign(f.flavor, m) > 0},
    )


def _act(flavor, perm, mono):
    """The S3 action on one monomial: (renamed monomial, sign).

    Generator i is renamed to perm[i], so renamed[perm[i]] = mono[i].  The
    sign is (-1)^s, where s sums A + O*k_i*k_j over the pairs i < j that perm
    inverts (perm[i] > perm[j]), with k = mono.  A = 1 in the antisymmetric
    flavors, so they are twisted by the sign of the permutation; O = 1 in the
    odd flavors, since sorting the renamed word moves xi^k_i past xi^k_j in
    k_i*k_j transpositions.  Both are 0 otherwise.
    """
    p0, p1, p2 = perm
    k0, k1, k2 = mono
    renamed = [0, 0, 0]
    renamed[p0], renamed[p1], renamed[p2] = k0, k1, k2
    a, o = flavor.antisymmetric, flavor.odd
    s = 0
    if p0 > p1:
        s += a + o * k0 * k1
    if p0 > p2:
        s += a + o * k0 * k2
    if p1 > p2:
        s += a + o * k1 * k2
    return tuple(renamed), -1 if s % 2 else 1


def permute_variables(perm, f):
    """Rename generator i to perm[i] (0-based), with the signs of _act.

    Entries follow _integral ((0, 1, 2.0) acts as (0, 1, 2)); anything but
    a permutation of 0..2 raises ValueError.
    """
    integral = tuple(_integral(p, "permutation entry") for p in perm)
    if sorted(integral) != [0, 1, 2]:
        raise ValueError(f"not a permutation of 0..2: {perm}")
    perm = integral
    out = {}
    for mono, c in f.coeffs.items():
        renamed, sign = _act(f.flavor, perm, mono)
        out[renamed] = sign * c
    return Element(f.flavor, f.degree, out)


def orbit(flavor, triple):
    """Coefficients of the symmetrized monomial (k1,k2,k3) / [k1,k2,k3].

    The signed S3 images of the descending-sorted triple, a dict from
    monomials to +-1; empty unless the triple is_admissible.  Then every
    stabilizing permutation acts with +1, and two permutations reaching one
    monomial differ by one of those, so they give it the same sign.
    """
    rep = tuple(sorted(triple, reverse=True))
    if not is_admissible(flavor, rep):
        return {}
    return dict(_act(flavor, perm, rep) for perm in S3)


def symmetrize(flavor, triple):
    """The symmetrized monomial of a triple as an Element (orbit); zero if it cancels."""
    return Element(flavor, sum(triple), orbit(flavor, triple))


def is_admissible(flavor, triple):
    """Whether the symmetrization of the triple is nonzero.

    The one test of cancellation.  The orbit sum's coefficient on the sorted
    triple sums the signs of its stabilizer, so it vanishes exactly when one
    is -1.  The stabilizer is generated by (1, 0, 2) when k1 == k2 and by
    (0, 2, 1) when k2 == k3; _act, the sign rule's one statement, signs them.
    """
    k1, k2, k3 = rep = sorted(triple, reverse=True)
    return not (
        (k1 == k2 and _act(flavor, (1, 0, 2), rep)[1] < 0)
        or (k2 == k3 and _act(flavor, (0, 2, 1), rep)[1] < 0)
    )


def admissible_basis(flavor, degree):
    """Admissible triples of a degree (_integral), in descending lex order."""
    degree = _integral(degree, "degree")
    triples = []
    for k1 in range(degree, -1, -1):
        for k2 in range(min(k1, degree - k1), -1, -1):
            k3 = degree - k1 - k2
            if k3 <= k2 and is_admissible(flavor, (k1, k2, k3)):
                triples.append((k1, k2, k3))
    return triples


def basis_coordinates(f):
    """Expand an equivariant element over the symmetrized basis.

    The coefficient on the basis element labelled by a sorted triple is f's
    coefficient on that monomial, since each symmetrized monomial has
    coefficient 1 there and the orbits are disjoint.  f must be fixed by the
    transpositions (1, 0, 2) and (0, 2, 1), which generate S3; otherwise
    ValueError is raised instead of returning garbage.  tau f == f is read as
    f[tau mu] == sign * f[mu] for each monomial mu of f (_act), the same test
    since tau is an involution on monomials.  The invariant elements are
    exactly the span of the orbit sums, so no rebuild is needed.  Keys come
    back in descending lexicographic order.
    """
    for perm in ((1, 0, 2), (0, 2, 1)):
        for mono, c in f.coeffs.items():
            renamed, sign = _act(f.flavor, perm, mono)
            if f.coeffs.get(renamed, 0) != sign * c:
                raise ValueError(f"element is not equivariant for {f.flavor}")
    return {
        mono: f.coeffs[mono]
        for mono in sorted(f.coeffs, reverse=True)
        if mono[0] >= mono[1] >= mono[2]
    }


def generator_sum(flavor):
    """e1 = x1 + x2 + x3 (or the xi version), in the parity of the flavor."""
    return Element(
        Flavor(flavor.odd, False), 1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    )


def mul_e1(f, side):
    """Multiply by e1 on the requested side ("left" or "right")."""
    e = generator_sum(f.flavor)
    if side == "left":
        return e * f
    if side == "right":
        return f * e
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def render_element(f):
    """Deterministic text form, monomials in descending lexicographic order."""
    if f.is_zero():
        return "0"
    stem = "xi" if f.flavor.odd else "x"
    pieces = []
    for mono in sorted(f.coeffs, reverse=True):
        c = f.coeffs[mono]
        factors = []
        for i, k in enumerate(mono):
            if k == 1:
                factors.append(f"{stem}{i + 1}")
            elif k > 1:
                factors.append(f"{stem}{i + 1}^{k}")
        body = "*".join(factors) if factors else "1"
        magnitude = abs(c)
        if magnitude == 1 and factors:
            term = body
        else:
            term = f"{magnitude}*{body}" if factors else str(magnitude)
        if not pieces:
            pieces.append(term if c > 0 else "-" + term)
        else:
            pieces.append((" + " if c > 0 else " - ") + term)
    return "".join(pieces)
