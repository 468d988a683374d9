"""Polynomials in three generators, in four flavors.

The complexes built by this package live inside polynomial algebras in three
generators x1, x2, x3 which either commute or are odd,

    xi_i xi_j = -xi_j xi_i   for i != j,   but xi_i^2 != 0,

crossed with a choice of S3-equivariance: the symmetric group permutes the
generators either plainly or twisted by the sign character.  That gives four
flavors, written Sym[x], ASym[x], Sym[xi], ASym[xi].

Elements are homogeneous and sparse: a map from exponent triples to rational
coefficients.  Odd monomials are kept in the normal form
xi_1^a xi_2^b xi_3^c, with the sign of a word tracked as the parity of the
number of transpositions of distinct generators used to sort it:

>>> normalize_word([2, 1], odd=True)
((1, 1, 0), -1)
>>> normalize_word([1, 1], odd=True)
((2, 0, 0), 1)

The mirror involution negates every generator; on odd flavors it extends to
normal-form monomials as an anti-automorphism and acts diagonally:

>>> mirror(Element(SYM_ODD, 1, {(1, 0, 0): 1})).coeffs
{(1, 0, 0): Fraction(-1, 1)}

Symmetrized monomials, written (k1,k2,k3) in the plain flavors and [k1,k2,k3]
in the sign-twisted ones, are the signed S3-orbit sums normalized to
coefficient +1 on the descending-sorted monomial; the ones that survive form
the admissible bases enumerated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def permutation_parity(perm):
    """0 for even permutations, 1 for odd ones."""
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return inv % 2


def normalize_word(word, odd):
    """Sort a word of generator indices (1-based) into normal form.

    Returns (exponent triple, sign).  The sign is -1 exactly when the word is
    odd-flavored and sorting it needs an odd number of transpositions of
    distinct generators; squares survive, so the coefficient is never lost.

    >>> normalize_word([3, 2, 1], odd=True)
    ((1, 1, 1), -1)
    """
    exps = [0, 0, 0]
    inversions = 0
    word = list(word)
    for pos, gen in enumerate(word):
        if gen not in (1, 2, 3):
            raise ValueError(f"generator index {gen!r} not in 1..3")
        exps[gen - 1] += 1
        for later in word[pos + 1 :]:
            if later < gen:
                inversions += 1
    sign = -1 if (odd and inversions % 2) else 1
    return (exps[0], exps[1], exps[2]), sign


class Element:
    """A homogeneous element of one of the four flavors.

    coeffs maps normal-form exponent triples to nonzero Fractions.  The zero
    element keeps its (flavor, degree) so that degree bookkeeping, and the
    degree-dependent signs downstream, survive cancellation.
    """

    __slots__ = ("flavor", "degree", "coeffs")

    def __init__(self, flavor, degree, coeffs=None):
        degree = int(degree)
        if degree < 0:
            raise ValueError("negative degree")
        clean = {}
        for mono, coefficient in (coeffs or {}).items():
            mono = (int(mono[0]), int(mono[1]), int(mono[2]))
            if min(mono) < 0:
                raise ValueError(f"negative exponent in {mono}")
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} is not of degree {degree}")
            coefficient = Fraction(coefficient)
            if coefficient:
                clean[mono] = coefficient
        self.flavor = flavor
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def zero(cls, flavor, degree):
        return cls(flavor, degree, {})

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, mono):
        return self.coeffs.get(tuple(mono), Fraction(0))

    def _check_compatible(self, other):
        if self.flavor != other.flavor:
            raise ValueError(f"flavor mismatch: {self.flavor} vs {other.flavor}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, Fraction(0)) + c
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
                    # b's generators move left past a's higher-index ones
                    if self.flavor.odd and (b[0] * (a[1] + a[2]) + b[1] * a[2]) % 2:
                        term = -term
                    out[mono] = out.get(mono, Fraction(0)) + term
            return Element(flavor, self.degree + other.degree, out)
        factor = Fraction(other)
        return Element(
            self.flavor, self.degree, {m: factor * c for m, c in self.coeffs.items()}
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

    def __hash__(self):
        return hash((self.flavor, self.degree, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return f"Element({self.flavor}, {render_element(self)})"


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
    """Project onto the +1 eigenspace of the mirror involution."""
    return (f + mirror(f)) * Fraction(1, 2)


def permute_variables(perm, f):
    """Rename generator i to perm[i] (0-based) and renormalize.

    Odd flavors pick up the sign from sorting the renamed word; antisymmetric
    flavors are additionally twisted by the sign of the permutation.
    """
    if tuple(sorted(perm)) != (0, 1, 2):
        raise ValueError(f"not a permutation of 0..2: {perm}")
    out = {}
    for mono, c in f.coeffs.items():
        renamed = [0, 0, 0]
        for i in range(3):
            renamed[perm[i]] = mono[i]
        sign = 1
        if f.flavor.odd:
            crossings = sum(
                mono[i] * mono[j]
                for i in range(3)
                for j in range(i + 1, 3)
                if perm[i] > perm[j]
            )
            if crossings % 2:
                sign = -sign
        if f.flavor.antisymmetric and permutation_parity(perm):
            sign = -sign
        out[tuple(renamed)] = sign * c
    return Element(f.flavor, f.degree, out)


def symmetrize(flavor, triple):
    """Signed S3-orbit sum of a monomial, the basis element (k1,k2,k3) / [k1,k2,k3].

    Normalized so the descending-sorted monomial has coefficient +1; returns
    the zero element when the orbit sum cancels.  Cancellation is detected by
    actually summing the orbit, not by a parity shortcut.
    """
    rep = tuple(sorted(triple, reverse=True))
    degree = sum(rep)
    base = Element(flavor, degree, {rep: 1})
    total = Element.zero(flavor, degree)
    for perm in S3:
        total = total + permute_variables(perm, base)
    lead = total.coefficient(rep)
    if not lead:
        return Element.zero(flavor, degree)
    return total * (Fraction(1) / lead)


def is_admissible(flavor, triple):
    """Whether the symmetrization of the triple is nonzero.

    Sym[x]: always.  ASym[x]: strictly decreasing parts.  Sym[xi]: equal
    adjacent parts must be even.  ASym[xi]: equal adjacent parts must be odd.
    (These shortcuts are verified against actual orbit sums in the tests.)
    """
    k1, k2, k3 = sorted(triple, reverse=True)
    if not flavor.odd:
        if flavor.antisymmetric:
            return k1 > k2 > k3
        return True
    need = 1 if flavor.antisymmetric else 0
    if k1 == k2 and k1 % 2 != need:
        return False
    if k2 == k3 and k2 % 2 != need:
        return False
    return True


def admissible_basis(flavor, degree):
    """Admissible triples of the given degree, in descending lexicographic order."""
    triples = []
    for k1 in range(degree, -1, -1):
        for k2 in range(min(k1, degree - k1), -1, -1):
            k3 = degree - k1 - k2
            if 0 <= k3 <= k2:
                triples.append((k1, k2, k3))
    triples.sort(reverse=True)
    return [t for t in triples if is_admissible(flavor, t)]


def basis_coordinates(f):
    """Expand an equivariant element over the symmetrized basis.

    The coefficient on the basis element labelled by a sorted triple is f's
    coefficient on that monomial; the expansion is then rebuilt and compared
    against f, so a non-equivariant input raises ValueError instead of
    returning garbage.  Keys come back in descending lexicographic order.
    """
    coords = {}
    for mono in f.coeffs:
        rep = tuple(sorted(mono, reverse=True))
        if rep not in coords:
            c = f.coefficient(rep)
            if c:
                coords[rep] = c
    rebuilt = Element.zero(f.flavor, f.degree)
    for rep, c in coords.items():
        rebuilt = rebuilt + symmetrize(f.flavor, rep) * c
    if rebuilt != f:
        raise ValueError(f"element is not equivariant for {f.flavor}")
    return dict(sorted(coords.items(), reverse=True))


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


def e2():
    """Second elementary symmetric polynomial in the commuting generators."""
    return Element(SYM, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})


def e3():
    """Third elementary symmetric polynomial in the commuting generators."""
    return Element(SYM, 3, {(1, 1, 1): 1})


def vandermonde():
    """(x1-x2)(x1-x3)(x2-x3), the fundamental ASym[x] element [2,1,0]."""
    return Element(
        ASYM,
        3,
        {
            (2, 1, 0): 1,
            (2, 0, 1): -1,
            (1, 2, 0): -1,
            (0, 2, 1): 1,
            (1, 0, 2): 1,
            (0, 1, 2): -1,
        },
    )


def element_power(f, n):
    if n < 0:
        raise ValueError("negative power")
    result = Element(Flavor(f.flavor.odd, False), 0, {(0, 0, 0): 1})
    for _ in range(n):
        result = result * f
    return result


def elementary_reconstruct(coeffs):
    """Sum of c * e1^alpha e2^beta e3^gamma over {(alpha, beta, gamma): c}."""
    terms = [
        element_power(generator_sum(SYM), a) * element_power(e2(), b) * element_power(e3(), c) * coefficient
        for (a, b, c), coefficient in coeffs.items()
    ]
    if not terms:
        return Element.zero(SYM, 0)
    degree = terms[0].degree
    total = Element.zero(SYM, degree)
    for term in terms:
        total = total + term
    return total


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
