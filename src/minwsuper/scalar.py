"""Exact arithmetic in small multi-quadratic extensions of the rationals.

A :class:`Scalar` is a finite sum ``sum_T c_T * prod_{d in T} sqrt(d)`` where
every ``T`` is a set of square-free integer "atoms" and ``c_T`` is a
:class:`fractions.Fraction`.  Multiplication combines atom sets by symmetric
difference, picking up the product of the shared atoms (``sqrt(d)**2 = d``).

:func:`sqrt` writes the square root of a rational as a rational multiple of
one atom.  The engine takes only sqrt(-2) and the midline norm, which reduces
to it.  Exact equality and inversion need the atoms in play to be
multiplicatively independent modulo squares: two distinct square-free atoms
always are, three need not be (sqrt(-1)*sqrt(2) and sqrt(-2) are one number
written over different atoms).
"""

from __future__ import annotations

from fractions import Fraction

_EMPTY = frozenset()


def _sqfree_split(n):
    """Write n = outer**2 * core with core square-free; sign stays on core."""
    if n == 0:
        raise ValueError("0 has no square-free core")
    sign = -1 if n < 0 else 1
    n = abs(n)
    outer = 1
    core = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        outer *= p ** (e // 2)
        if e % 2:
            core *= p
        p += 1 if p == 2 else 2
    core *= n
    return outer, sign * core


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar({_EMPTY: Fraction(x)})
    return None


class Scalar:
    """Immutable exact number supporting +, -, *, /, ** and exact equality."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, val in terms.items():
                val = Fraction(val)
                if val:
                    clean[frozenset(key)] = val
        self._terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(x):
        return Scalar({_EMPTY: Fraction(x)})

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
        return all(not key for key in self._terms)

    def as_fraction(self):
        """The underlying rational; raises if radical terms are present."""
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("scalar %s is not rational" % self)
        return self._terms[_EMPTY]

    def atoms(self):
        out = set()
        for key in self._terms:
            out |= key
        return out

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
                for d in ka & kb:
                    val *= d
                key = ka ^ kb
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

    def _flip(self, atom):
        res = Scalar.__new__(Scalar)
        res._terms = {
            key: (-val if atom in key else val) for key, val in self._terms.items()
        }
        return res

    def inv(self):
        """Multiplicative inverse via iterated conjugation over the atoms."""
        if not self._terms:
            raise ZeroDivisionError("inverse of zero scalar")
        num = _ONE
        cur = self
        while True:
            atoms = cur.atoms()
            if not atoms:
                break
            conj = cur._flip(min(atoms))
            num = num * conj
            cur = cur * conj
        rat = cur._terms.get(_EMPTY, Fraction(0))
        if not rat:
            # only reachable if atoms were not independent modulo squares
            raise ArithmeticError("zero divisor: radical atoms are inconsistent")
        return num * Scalar({_EMPTY: 1 / rat})

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
            return hash(self._terms.get(_EMPTY, 0))
        return hash(frozenset(self._terms.items()))

    # -- text form ------------------------------------------------------

    def render(self):
        """Canonical text form, e.g. ``1/3 - 1/3*sqrt(-2)``."""
        if not self._terms:
            return "0"
        parts = []
        for key in sorted(self._terms, key=lambda k: (len(k), sorted(k))):
            val = self._terms[key]
            mag = val if val > 0 else -val
            factors = ["sqrt(%d)" % d for d in sorted(key)]
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


_ZERO = Scalar()
_ONE = Scalar({_EMPTY: Fraction(1)})


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
    key = _EMPTY if core == 1 else frozenset([core])
    return Scalar({key: Fraction(outer, q.denominator)})


ZERO = _ZERO
ONE = _ONE
HALF = Scalar.rational(Fraction(1, 2))
