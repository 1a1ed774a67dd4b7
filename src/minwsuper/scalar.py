"""Exact arithmetic in small multi-quadratic extensions of the rationals.

A :class:`Scalar` is a finite sum ``sum_k c_k * sqrt(k)`` over distinct
square-free integers ``k`` (``k = 1`` is the rational part, and
``sqrt(k)`` for negative ``k`` is ``i * sqrt(-k)``) with
:class:`fractions.Fraction` coefficients ``c_k``.  The ``sqrt(k)`` are
linearly independent over the rationals, so this form is canonical and
exact equality is equality of the term dicts.  Multiplication uses
``sqrt(m) * sqrt(n) = +-g * sqrt(mn / g**2)`` with ``g = gcd(m, n)``,
negative when both ``m`` and ``n`` are.

:func:`sqrt` writes the square root of a rational as a rational multiple of
one ``sqrt(k)``.  The engine takes only sqrt(-2) and the midline norm, which
reduces to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _factor(n):
    """{prime: exponent} of abs(n), n nonzero."""
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def _sqfree_split(n):
    """Write n = outer**2 * core with core square-free; sign stays on core."""
    if n == 0:
        raise ValueError("0 has no square-free core")
    outer = core = 1
    for p, e in _factor(n).items():
        outer *= p ** (e // 2)
        core *= p ** (e % 2)
    return outer, -core if n < 0 else core


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar._term(1, Fraction(x))
    return None


class Scalar:
    """Immutable exact number supporting +, -, *, /, ** and exact equality."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """``terms`` maps nonzero integers k to the coefficient of sqrt(k)."""
        total = _ZERO
        for key, val in (terms or {}).items():
            total = total + sqrt(key) * Fraction(val)
        self._terms = total._terms

    @staticmethod
    def _term(core, val):
        res = Scalar.__new__(Scalar)
        res._terms = {core: val} if val else {}
        return res

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(x):
        return Scalar._term(1, Fraction(x))

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    def is_rational(self):
        return all(key == 1 for key in self._terms)

    def as_fraction(self):
        """The underlying rational; raises if radical terms are present."""
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("scalar %s is not rational" % self)
        return self._terms[1]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for key, val in other._terms.items():
            acc = out.get(key)
            tot = val if acc is None else acc + val
            if tot:
                out[key] = tot
            elif acc is not None:
                del out[key]
        res = Scalar.__new__(Scalar)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = Scalar.__new__(Scalar)
        res._terms = {key: -val for key, val in self._terms.items()}
        return res

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for ka, va in self._terms.items():
            for kb, vb in other._terms.items():
                val = va * vb
                if ka == 1:
                    key = kb
                elif kb == 1:
                    key = ka
                else:
                    g = gcd(ka, kb)
                    key = (ka // g) * (kb // g)
                    val *= g if ka > 0 or kb > 0 else -g
                acc = out.get(key)
                tot = val if acc is None else acc + val
                if tot:
                    out[key] = tot
                elif acc is not None:
                    del out[key]
        res = Scalar.__new__(Scalar)
        res._terms = out
        return res

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse by iterated conjugation: for q = -1 and
        then each prime q of the keys, multiply by the conjugate that
        negates sqrt(q), which leaves a product free of sqrt(q)."""
        if not self._terms:
            raise ZeroDivisionError("inverse of zero scalar")
        primes = {p for key in self._terms for p in _factor(key)}
        num = _ONE
        cur = self
        for q in [-1] + sorted(primes):
            negated = [key for key in cur._terms
                       if (key < 0 if q < 0 else key % q == 0)]
            if not negated:
                continue
            conj = Scalar.__new__(Scalar)
            conj._terms = {key: (-val if key in negated else val)
                           for key, val in cur._terms.items()}
            num = num * conj
            cur = cur * conj
        return num * Scalar._term(1, 1 / cur._terms[1])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a rational scalar equals its Fraction, so it must hash like it
        if self.is_rational():
            return hash(self._terms.get(1, 0))
        return hash(frozenset(self._terms.items()))

    # -- text form ------------------------------------------------------

    def render(self):
        """Canonical text form, e.g. ``1/3 - 1/3*sqrt(-2)``."""
        if not self._terms:
            return "0"
        parts = []
        for key in sorted(self._terms, key=lambda k: (k != 1, k)):
            val = self._terms[key]
            mag = val if val > 0 else -val
            factors = [] if key == 1 else ["sqrt(%d)" % key]
            if factors and mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if val > 0 else "-" + body)
            else:
                parts.append((" + " if val > 0 else " - ") + body)
        return "".join(parts)

    __str__ = render

    def __repr__(self):
        return "Scalar(%s)" % self.render()

    @staticmethod
    def parse(text):
        """Inverse of :meth:`render`; accepts the same flat sum-of-terms grammar."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        # split on top-level + and - (no parentheses except inside sqrt())
        chunks = []
        start = 0
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch in "+-" and depth == 0 and i > start:
                chunks.append(s[start:i])
                start = i
        chunks.append(s[start:])
        total = _ZERO
        for chunk in chunks:
            total = total + Scalar._parse_term(chunk)
        return total

    @staticmethod
    def _parse_term(chunk):
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise ValueError("dangling sign in scalar literal")
        term = Scalar.rational(sign)
        for factor in chunk.split("*"):
            if factor.startswith("sqrt(") and factor.endswith(")"):
                term = term * sqrt(int(factor[5:-1]))
            elif factor:
                term = term * Fraction(factor)
            else:
                raise ValueError("empty factor in %r" % chunk)
        return term


_ZERO = Scalar._term(1, 0)
_ONE = Scalar._term(1, Fraction(1))


def scalar(x):
    """Coerce an int, Fraction or Scalar to a Scalar."""
    res = _coerce(x)
    if res is None:
        raise TypeError("cannot coerce %r to Scalar" % (x,))
    return res


def sqrt(q):
    """sqrt(q) of a nonzero rational q, as mult * sqrt(core) with core a
    square-free integer (no atom when q is a rational square)."""
    q = Fraction(q)
    outer, core = _sqfree_split(q.numerator * q.denominator)
    return Scalar._term(core, Fraction(outer, q.denominator))


ZERO = _ZERO
ONE = _ONE
HALF = Scalar.rational(Fraction(1, 2))
