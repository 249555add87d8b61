"""Scalar arithmetic with an exact and a floating backend.

The exact backend represents numbers of the field Q(i, sqrt2):

    (a + b*sqrt2) + i*(c + d*sqrt2)        a, b, c, d rational

which contains every matrix entry of the H/X/Y/Z gates, of multiqubit
CZ gates, and of the unit phases -1, +-i, (1+-i)/sqrt2.  Circuits built
from those gates simulate with no rounding at all, so "equals zero" is
decided exactly instead of against a tolerance.  Anything else (general
1-qubit gates, Gaussian samples) lives on the floating backend as a
plain Python complex.

Mixing the two backends in an arithmetic operation demotes the result
to the floating backend.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

import numpy as np

_SQRT2 = 1.4142135623730951

_F0 = Fraction(0)


class Exact:
    """An element a + b*sqrt2 + i*(c + d*sqrt2) with rational a, b, c, d.

    Values are immutable and hashable; Fraction keeps each component in
    lowest terms, so equal values always have identical components.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.d = Fraction(d)

    @classmethod
    def _fast(cls, a, b, c, d) -> "Exact":
        # internal: components are already Fractions (results of Fraction
        # arithmetic), skip the validating constructor
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        return self

    # ---- predicates -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    # ---- conversions ------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.a) + float(self.b) * _SQRT2,
                       float(self.c) + float(self.d) * _SQRT2)

    def conjugate(self) -> "Exact":
        return Exact(self.a, self.b, -self.c, -self.d)

    def abs2(self) -> "Exact":
        """|x|^2, again an element of the field (real)."""
        re2_a = self.a * self.a + 2 * self.b * self.b
        re2_b = 2 * self.a * self.b
        im2_a = self.c * self.c + 2 * self.d * self.d
        im2_b = 2 * self.c * self.d
        return Exact(re2_a + im2_a, re2_b + im2_b)

    # ---- arithmetic -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Exact):
            return Exact._fast(self.a + other.a, self.b + other.b,
                               self.c + other.c, self.d + other.d)
        if isinstance(other, numbers.Integral) or isinstance(other, Fraction):
            return Exact._fast(self.a + Fraction(other), self.b, self.c, self.d)
        if isinstance(other, numbers.Complex):
            return complex(self) + complex(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Exact._fast(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        if isinstance(other, Exact):
            return Exact._fast(self.a - other.a, self.b - other.b,
                               self.c - other.c, self.d - other.d)
        if isinstance(other, numbers.Integral) or isinstance(other, Fraction):
            return Exact._fast(self.a - Fraction(other), self.b, self.c, self.d)
        if isinstance(other, numbers.Complex):
            return complex(self) - complex(other)
        return NotImplemented

    def __rsub__(self, other):
        neg = self.__neg__()
        return neg.__add__(other)

    def __mul__(self, other):
        if isinstance(other, Exact):
            pa, pb, qa, qb = self.a, self.b, self.c, self.d
            ra, rb, sa, sb = other.a, other.b, other.c, other.d
            # sparse values are the common case; skip zero cross terms
            if not (qa or qb or sa or sb):  # both real
                if not (pb or rb):  # both rational
                    return Exact._fast(pa * ra, _F0, _F0, _F0)
                return Exact._fast(pa * ra + 2 * pb * rb,
                                   pa * rb + pb * ra, _F0, _F0)
            # (p + iq)(r + is) with p,q,r,s in Q[sqrt2]
            re_a = (pa * ra + 2 * pb * rb) - (qa * sa + 2 * qb * sb)
            re_b = (pa * rb + pb * ra) - (qa * sb + qb * sa)
            im_a = (pa * sa + 2 * pb * sb) + (qa * ra + 2 * qb * rb)
            im_b = (pa * sb + pb * sa) + (qa * rb + qb * ra)
            return Exact._fast(re_a, re_b, im_a, im_b)
        if isinstance(other, numbers.Integral) or isinstance(other, Fraction):
            f = Fraction(other)
            return Exact._fast(self.a * f, self.b * f, self.c * f, self.d * f)
        if isinstance(other, numbers.Complex):
            return complex(self) * complex(other)
        return NotImplemented

    __rmul__ = __mul__

    def _invert(self) -> "Exact":
        if self.is_zero:
            raise ZeroDivisionError("exact scalar division by zero")
        if not (self.b or self.c or self.d):
            return Exact._fast(1 / self.a, _F0, _F0, _F0)
        # 1/z = conj(z) / |z|^2 ; |z|^2 = A + B*sqrt2 with rational A, B,
        # and 1/(A + B*sqrt2) = (A - B*sqrt2)/(A^2 - 2 B^2).
        n = self.abs2()
        den = n.a * n.a - 2 * n.b * n.b
        inv_a, inv_b = n.a / den, -n.b / den
        conj = self.conjugate()
        return conj * Exact(inv_a, inv_b)

    def __truediv__(self, other):
        if isinstance(other, Exact):
            return self * other._invert()
        if isinstance(other, numbers.Integral) or isinstance(other, Fraction):
            return self * Exact(Fraction(1, 1) / Fraction(other))
        if isinstance(other, numbers.Complex):
            return complex(self) / complex(other)
        return NotImplemented

    def __rtruediv__(self, other):
        inv = self._invert()
        return inv.__mul__(other)

    # ---- comparison -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Exact):
            return (self.a == other.a and self.b == other.b
                    and self.c == other.c and self.d == other.d)
        if isinstance(other, numbers.Integral) or isinstance(other, Fraction):
            return self == Exact(other)
        if isinstance(other, numbers.Complex):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Exact({self.a}, {self.b}, {self.c}, {self.d})"


Exact.ZERO = Exact(0)
Exact.ONE = Exact(1)
Exact.MINUS_ONE = Exact(-1)
Exact.I = Exact(0, 0, 1)
Exact.SQRT2 = Exact(0, 1)
Exact.INV_SQRT2 = Exact(0, Fraction(1, 2))  # 1/sqrt2 == (1/2)*sqrt2

#: Union of the two scalar backends as accepted throughout the package.
Scalar = Exact | complex | float | int


def is_exact(s) -> bool:
    return isinstance(s, Exact)


def to_float(s) -> complex:
    """Map any scalar onto the floating backend."""
    return complex(s)


def scalar_is_zero(s, abs_eps: float = 0.0) -> bool:
    """Exact scalars are tested exactly; floats against abs_eps."""
    if isinstance(s, Exact):
        return s.is_zero
    return abs(complex(s)) <= abs_eps


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative comparison thresholds for the floating backend."""

    abs_eps: float = 1e-10
    rel_eps: float = 1e-9

    def __post_init__(self):
        for v in (self.abs_eps, self.rel_eps):
            if not (np.isfinite(v) and v >= 0):
                raise ValueError("tolerances must be finite and >= 0")

    def threshold(self, scale: float = 1.0) -> float:
        return self.abs_eps + self.rel_eps * scale

    def close(self, x: complex, y: complex) -> bool:
        return abs(x - y) <= self.threshold(max(abs(x), abs(y)))


DEFAULT_TOL = Tolerance()


def approx_eq(x, y, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Scalar comparison: Exact vs Exact is exact, otherwise tolerant."""
    if isinstance(x, Exact) and isinstance(y, Exact):
        return x == y
    return tol.close(to_float(x), to_float(y))


def sv_rank_le_1(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """The floating rank-<=1 rule on singular values s in descending order:
    every one past the first is at most ``tol.threshold(s[0])``."""
    return len(s) < 2 or bool(s[1] <= tol.threshold(s[0]))


# ---- integer numerators ------------------------------------------------
# Field values as integer arrays, a stack: a (k, ...) array of the
# numerators of their components over one denominator, k = 4 for the
# components of 1, sqrt2, i and i sqrt2, or k = 1 for real rationals.

#: Numerator arrays stay int64 while every entry an operation can
#: produce is below this; int64 wraps silently, so bounds come first.
INT64_SAFE = 1 << 62

_PARTS = attrgetter("a", "b", "c", "d")


def numerators(xs) -> tuple[list, int]:
    """The components of each ``Exact`` in xs, four per value in order,
    as integer numerators over their least common denominator (so in
    lowest terms), and that denominator."""
    flat = [c for x in xs for c in _PARTS(x)]
    den = math.lcm(*{c.denominator for c in flat})
    return [c.numerator * (den // c.denominator) for c in flat], den


def numerator_stack(xs) -> tuple[np.ndarray, int]:
    """The ``Exact`` values xs as a (k, len xs) stack over their least
    common denominator, and that denominator: k = 1 if all are real
    rationals; int64 below ``INT64_SAFE``, Python ints past it."""
    if any(x.b or x.c or x.d for x in xs):
        (nums, den), k = numerators(xs), 4
    else:
        ratios = [x.a.as_integer_ratio() for x in xs]
        den = math.lcm(*{d for _, d in ratios})
        nums, k = [n * (den // d) for n, d in ratios], 1
    big = max(map(abs, nums), default=0)
    num = np.array(nums, dtype=np.int64 if big < INT64_SAFE else object)
    return num.reshape(-1, k).T, den


def stack_size(num: np.ndarray) -> list:
    """|a| + 2|b| + |c| + 2|d| per value of a (k, n) stack, as ints: a
    product's components are at most the product of the sizes."""
    rows = [[w * abs(x) for x in row] for w, row in zip((1, 2, 1, 2), num.tolist())]
    return list(map(sum, zip(*rows)))


def stack_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The products of the values of two stacks, broadcast over the axes
    after the first: plain products when either is real (k = 1), else
    ``field_mul``.  Each component is at most 6 max|x| max|y|."""
    if len(x) == 1 or len(y) == 1:
        return x * y
    return np.stack(field_mul(x, y))


def four_components(num: np.ndarray) -> np.ndarray:
    """A stack with k = 4: ``num``, or a real one with zeros appended."""
    if len(num) == 4:
        return num
    return np.concatenate([num, np.zeros((3, *num.shape[1:]), num.dtype)])


def widened(num: np.ndarray, gain: int = 1) -> np.ndarray:
    """``num`` as Python ints once an entry times ``gain`` could reach
    ``INT64_SAFE``."""
    if num.dtype != object and int(np.abs(num).max()) * gain >= INT64_SAFE:
        return num.astype(object)
    return num


def narrowed(num: np.ndarray) -> np.ndarray:
    """``num`` in C order, as int64 when every entry lies below
    ``INT64_SAFE``, else as Python ints."""
    big = int(np.abs(num).max())
    return num.astype(np.int64 if big < INT64_SAFE else object, order="C", copy=False)


def lowest_terms(num: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    if den != 1:
        g = math.gcd(den, int(np.gcd.reduce(num, axis=None)))
        if g != 1:
            return num // g, den // g
    return num, den


def field_mul(x, y):
    """Componentwise products of values (a, b, c, d), on ints or arrays;
    each component is at most 6 max|x| max|y|."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + 2 * b * f - c * g - 2 * d * h,
            a * f + b * e - c * h - d * g,
            a * g + 2 * b * h + c * e + 2 * d * f,
            a * h + b * g + c * f + d * e)


def numerators_to_complex(num: np.ndarray, den: int) -> np.ndarray:
    """num / den as complex128, equal to ``complex`` of each ``Exact``:
    components rounded once from their rational values, as ``float`` of a
    ``Fraction`` does (exact int64-to-float conversion up to 2^53)."""
    if num.dtype != object and den <= 1 << 53 and int(np.abs(num).max()) <= 1 << 53:
        a, b, c, d = num / den
    else:
        a, b, c, d = (np.array([x / den for x in row]) for row in num.tolist())
    out = np.empty(num.shape[1:], dtype=complex)
    out.real = a + b * _SQRT2
    out.imag = c + d * _SQRT2
    return out


def numerators_to_exact(num: np.ndarray, den: int) -> list:
    """num / den as ``Exact`` values, one ``Fraction`` per distinct numerator."""
    values, where = np.unique(num, return_inverse=True)
    fracs = [Fraction(v, den) for v in values.tolist()]
    a, b, c, d = ([fracs[i] for i in row] for row in where.reshape(4, -1).tolist())
    return list(map(Exact._fast, a, b, c, d))


# ---- randomness ------------------------------------------------------

def make_rng(seed, *stream) -> np.random.Generator:
    """Deterministic generator for (seed, stream...) independent of order
    in which other streams are consumed."""
    return np.random.default_rng([int(seed), *map(int, stream)])


def random_scalar(rng: np.random.Generator) -> complex:
    """Standard complex Gaussian draw (independent N(0,1) parts)."""
    return complex(rng.standard_normal(), rng.standard_normal())


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: Q of the QR decomposition of a complex
    Gaussian matrix z, with the phases of R's diagonal moved into Q so
    that R's diagonal is positive (Mezzadri, Notices AMS 2007).

    For dim = 2 that Q is written out from the same eight normals: its
    first column is z's over its norm n, its second the unit vector
    orthogonal to the first whose inner product with z's second column,
    |det z| / n, is positive.
    """
    if dim == 2:
        x = rng.standard_normal(8).tolist()
        a, b, c, d = map(complex, x[:4], x[4:])  # z = [[a, b], [c, d]]
        n = math.sqrt(a.real * a.real + a.imag * a.imag
                      + c.real * c.real + c.imag * c.imag)
        det = a * d - b * c
        phase = det / (abs(det) * n)
        return np.array([[a / n, -c.conjugate() * phase],
                         [c / n, a.conjugate() * phase]])
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def kron_all(mats) -> np.ndarray:
    """Tensor product of a sequence of matrices, first factor leftmost."""
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out
