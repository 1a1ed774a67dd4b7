"""Exact arithmetic in small multi-quadratic extensions of the rationals.

A :class:`Scalar` is a finite sum ``sum_k c_k * sqrt(k)`` over distinct
square-free integers ``k`` (``k = 1`` is the rational part, and
``sqrt(k)`` for negative ``k`` is ``i * sqrt(-k)``) with rational
coefficients ``c_k``.  The ``sqrt(k)`` are linearly independent over the
rationals, so this form is canonical and exact equality is equality of the
term dicts.  Multiplication uses ``sqrt(m) * sqrt(n) = +-g * sqrt(mn / g**2)``
with ``g = gcd(m, n)``, negative when both ``m`` and ``n`` are.

:func:`scalar` is the one coercion into Scalar: it reads an int, a Fraction
or a Scalar and raises TypeError on anything else, a bool, a float or a str
among them.  ``Scalar(terms)`` reads each coefficient through it,
:func:`sqrt` its argument and :meth:`Scalar.parse` each factor of a literal
in the grammar :meth:`Scalar.render` writes: an optional sign, then terms
joined by ``+`` or ``-``, with spaces only around those signs, each term a
``*``-product of ``n``, ``n/d`` and ``sqrt(k)`` in ASCII digits.

Every rational here, a Scalar's own value or a term coefficient, is
canonical: an ``int`` when integral, else a :class:`fractions.Fraction` in
lowest terms.  :func:`_qmul`, :func:`_qadd` and :func:`_qneg` are the one
kernel for them.  They work on the ints, cancel by gcd once and build a
non-integral result through ``Fraction``'s slots (:func:`_frac`), so no
operation dispatches through ``Fraction``'s operators or renormalizes.
Only a value with a nonzero radical term keeps a term dict; see
:class:`Scalar`.

:func:`axpy`, the sparse accumulation that straightening runs on, has one
kernel path: a rational times a rational into an absent or rational running
sum multiplies and adds ints inline and calls :func:`_qmul` and
:func:`_qadd` only for a Fraction operand.  Every radical or mixed term
takes the Scalar operators.  The engine's irrational
coefficients lie in sqrt(-2) when theta is +2 eps_i and in sqrt(2) when it
is -2 eps_i, and pi's images hold terms in sqrt(-1) and sqrt(-2) as well.

:func:`sqrt` writes the square root of a rational as a rational multiple of
one ``sqrt(k)``.  The engine takes sqrt(-2) for F and the midline norm,
which is sqrt(-2) or sqrt(2) by the sign of theta.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import PreconditionError


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
    outer = core = 1
    for p, e in _factor(n).items():
        outer *= p ** (e // 2)
        core *= p ** (e % 2)
    return outer, -core if n < 0 else core


_new = object.__new__


def _frac(n, d):
    """The Fraction n/d for coprime n and d > 1, set through its slots."""
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _qmul(a, b):
    """a * b for canonical rationals: cross-cancel, then multiply."""
    if a.__class__ is int:
        if b.__class__ is int:
            return a * b
        na, da = a, 1
    else:
        na, da = a._numerator, a._denominator
    if b.__class__ is int:
        nb, db = b, 1
    else:
        nb, db = b._numerator, b._denominator
    g = gcd(na, db)
    h = gcd(nb, da)
    d = (da // h) * (db // g)
    n = (na // g) * (nb // h)
    return n if d == 1 else _frac(n, d)


def _qadd(a, b):
    """a + b for canonical rationals, reduced by the gcd of the denominators."""
    if a.__class__ is int:
        if b.__class__ is int:
            return a + b
        na, da = a, 1
    else:
        na, da = a._numerator, a._denominator
    if b.__class__ is int:
        nb, db = b, 1
    else:
        nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        # coprime denominators, at least one > 1: already in lowest terms
        return _frac(na * db + nb * da, da * db)
    s = da // g
    n = na * (db // g) + nb * s
    # any common factor of n and the denominator s * db divides g
    h = gcd(n, g)
    d = s * (db // h)
    return n // h if d == 1 else _frac(n // h, d)


def _qneg(a):
    """-a for a canonical rational."""
    if a.__class__ is int:
        return -a
    return _frac(-a._numerator, a._denominator)


def _wrap(v):
    """The Scalar whose slot holds ``v``: a canonical rational or term dict.

    The rational branches of ``+`` and ``*`` inline this and the kernel's
    int-by-int case; the extra call was a measurable share of
    their cost."""
    res = _new(Scalar)
    res._v = v
    return res


def _canon(q):
    """A rational as an int when integral, else as the Fraction."""
    if q.__class__ is Fraction and q.denominator == 1:
        return q.numerator
    return q


def _value(x):
    """The slot value of a Scalar, int or Fraction (read as it is); None for
    other types.  A bool reads as 0 or 1: only :func:`scalar` refuses it."""
    cls = x.__class__
    if cls is Scalar:
        return x._v
    if cls is int:
        return x
    if cls is Fraction:
        return _canon(x)
    if isinstance(x, (int, Fraction)):
        return _canon(Fraction(x))
    return None


def _from_terms(terms):
    """The Scalar of a term dict whose radical terms may have cancelled."""
    if len(terms) > (1 in terms):
        return _wrap(terms)
    return _wrap(terms.get(1, 0))


class Scalar:
    """Immutable exact number supporting +, -, *, /, ** and exact equality.

    A Scalar has one slot.  A rational value sits there as a plain ``int``
    when it is integral and as a :class:`~fractions.Fraction` in lowest
    terms otherwise, and its arithmetic is one call of the int kernel.  A
    value with a nonzero radical term holds its term dict ``{k: c}`` there
    instead, each ``c`` nonzero and canonical in the same way; that dict
    always has a key other than 1, so the two forms never overlap and each
    number has exactly one representation.
    """

    __slots__ = ("_v",)

    def __init__(self, terms):
        """``terms`` is a dict mapping nonzero ints k to the coefficient of
        sqrt(k), each coefficient read by :func:`scalar`."""
        if not isinstance(terms, dict):
            raise TypeError("Scalar takes a dict of terms, not %r" % (terms,))
        total = _ZERO
        for key, val in terms.items():
            if type(key) is not int:
                raise TypeError("radicand %r is not an int" % (key,))
            total = total + sqrt(key) * scalar(val)
        self._v = total._v

    @property
    def _terms(self):
        """{k: rational coefficient of sqrt(k)}, read-only; {} for zero."""
        v = self._v
        if v.__class__ is dict:
            return v
        return {1: Fraction(v)} if v else {}

    # -- predicates ---------------------------------------------------

    def __bool__(self):
        return bool(self._v)

    def is_rational(self):
        return self._v.__class__ is not dict

    def as_fraction(self):
        """The underlying rational; raises if radical terms are present."""
        if self._v.__class__ is dict:
            raise PreconditionError("scalar %s is not rational" % self)
        return Fraction(self._v)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        a = self._v
        b = other._v if other.__class__ is Scalar else _value(other)
        if b is None:
            return NotImplemented
        if a.__class__ is not dict:
            if b.__class__ is not dict:
                res = _new(Scalar)
                res._v = (a + b if a.__class__ is b.__class__ is int
                          else _qadd(a, b))
                return res
            a, b = b, a
        if b.__class__ is not dict:
            b = {1: b}
        out = dict(a)
        for key, val in b.items():
            acc = out.get(key)
            tot = val if acc is None else _qadd(acc, val)
            if tot:
                out[key] = tot
            elif acc is not None:
                del out[key]
        return _from_terms(out)

    __radd__ = __add__

    def __neg__(self):
        v = self._v
        if v.__class__ is not dict:
            return _wrap(_qneg(v))
        return _wrap({key: _qneg(val) for key, val in v.items()})

    def __sub__(self, other):
        b = other._v if other.__class__ is Scalar else _value(other)
        if b is None:
            return NotImplemented
        return self + -_wrap(b)

    def __rsub__(self, other):
        b = _value(other)
        if b is None:
            return NotImplemented
        return -self + _wrap(b)

    def __mul__(self, other):
        a = self._v
        b = other._v if other.__class__ is Scalar else _value(other)
        if b is None:
            return NotImplemented
        if a.__class__ is not dict:
            if b.__class__ is not dict:
                res = _new(Scalar)
                res._v = (a * b if a.__class__ is b.__class__ is int
                          else _qmul(a, b))
                return res
            a, b = b, a
        if b.__class__ is not dict:
            # a rational factor scales every term; none of them vanishes
            if not b:
                return _ZERO
            return _wrap({key: _qmul(val, b) for key, val in a.items()})
        out = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                g = gcd(ka, kb)
                key = (ka // g) * (kb // g)
                val = _qmul(_qmul(va, vb), g if ka > 0 or kb > 0 else -g)
                acc = out.get(key)
                tot = val if acc is None else _qadd(acc, val)
                if tot:
                    out[key] = tot
                elif acc is not None:
                    del out[key]
        return _from_terms(out)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse.  A rational inverts natively; otherwise
        by iterated conjugation: for q = -1 and then each prime q of the
        keys, multiply by the conjugate that negates sqrt(q), which leaves
        a product free of sqrt(q)."""
        v = self._v
        if not v:
            raise ZeroDivisionError("inverse of zero scalar")
        if v.__class__ is not dict:
            return _wrap(_canon(1 / Fraction(v)))
        primes = {p for key in v for p in _factor(key)}
        num = _ONE
        cur = self
        for q in [-1] + sorted(primes):
            terms = cur._terms
            negated = [key for key in terms
                       if (key < 0 if q < 0 else key % q == 0)]
            if not negated:
                continue
            conj = _wrap({key: (_qneg(val) if key in negated else val)
                          for key, val in terms.items()})
            num = num * conj
            cur = cur * conj
        return num * cur.inv()

    def __truediv__(self, other):
        b = _value(other)
        if b is None:
            return NotImplemented
        return self * _wrap(b).inv()

    def __rtruediv__(self, other):
        b = _value(other)
        if b is None:
            return NotImplemented
        return _wrap(b) * self.inv()

    def __pow__(self, n):
        # an int exponent only, no bool; no other type's __rpow__ answers
        if n.__class__ is not int:
            raise TypeError("exponent %r is not an int" % (n,))
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
        b = other._v if other.__class__ is Scalar else _value(other)
        if b is None:
            return NotImplemented
        # a term dict never equals a rational, and canonical forms are unique
        return self._v == b

    def __hash__(self):
        # a rational scalar equals its int or Fraction, so it hashes like it
        v = self._v
        if v.__class__ is dict:
            return hash(frozenset(v.items()))
        return hash(v)

    # -- text form ------------------------------------------------------

    def render(self):
        """Canonical text form, e.g. ``1/3 - 1/3*sqrt(-2)``."""
        terms = self._v
        if terms.__class__ is not dict:
            return str(terms)
        parts = []
        for key in sorted(terms, key=lambda k: (k != 1, k)):
            val = terms[key]
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
        """Inverse of :meth:`render`, reading exactly its grammar.

        A literal is an optional sign, then terms joined by ``+`` or ``-``
        with spaces allowed only around those signs; a term is a
        ``*``-product of factors ``n``, ``n/d`` and ``sqrt(k)`` (``k``
        with an optional ``-``), all in ASCII digits.  Each factor is read
        by :func:`scalar` or :func:`sqrt`.  A malformed literal raises
        ``PreconditionError`` naming it.
        """
        if not isinstance(text, str):
            raise PreconditionError("scalar literal %r is not a string" % (text,))
        total = _ZERO
        pos = 0
        try:
            while True:
                m = _TERM.match(text, pos)
                if m is None:
                    raise PreconditionError("no term at offset %d" % pos)
                term = -_ONE if "-" in m.group(1) else _ONE
                for factor in m.group(2).split("*"):
                    term = term * (sqrt(int(factor[5:-1])) if factor[0] == "s"
                                   else scalar(Fraction(factor)))
                total = total + term
                pos = m.end()
                if pos == len(text):
                    return total
        except (PreconditionError, ZeroDivisionError) as exc:
            raise PreconditionError(
                "bad scalar literal %r: %s" % (text, exc)) from exc


# one term of render's grammar with the sign before it: an optional sign at
# the start of the literal, else a sign after a factor with spaces allowed
# around it; then a *-product of factors n, n/d and sqrt(k), ASCII digits
_FACTOR = r"(?:[0-9]+(?:/[0-9]+)?|sqrt\(-?[0-9]+\))"
_TERM = re.compile(r"(^[+-]?|(?<=[0-9)]) *[+-] *)(%s(?:\*%s)*)"
                   % (_FACTOR, _FACTOR))
_ZERO = _wrap(0)
_ONE = _wrap(1)


def scalar(x):
    """The one coercion into Scalar: an int, a Fraction or a Scalar is read
    as it is, and anything else, a bool, a float or a str among them,
    raises TypeError.  ``Scalar(terms)``, :func:`sqrt` and
    :meth:`Scalar.parse` read their numbers through it."""
    if x.__class__ is Scalar:
        return x
    v = None if x.__class__ is bool else _value(x)
    if v is None:
        raise TypeError("cannot coerce %r to Scalar" % (x,))
    return _wrap(v)


def sqrt(q):
    """sqrt(q) of a nonzero rational q, read by :func:`scalar`, as
    mult * sqrt(core) with core a square-free integer (no atom when q is a
    rational square).  A zero or irrational q raises PreconditionError."""
    q = scalar(q).as_fraction()
    if not q:
        raise PreconditionError("sqrt(0) is no radical")
    outer, core = _sqfree_split(q.numerator * q.denominator)
    mult = _canon(Fraction(outer, q.denominator))
    return _wrap(mult if core == 1 else {core: mult})


ZERO = _ZERO
ONE = _ONE
HALF = scalar(Fraction(1, 2))


# -- sparse accumulation ---------------------------------------------------
#
# The package's sparse vectors are dicts of their nonzero entries; these two
# are the one way to add into one.  An absent key takes the new value
# itself, a sum that cancels deletes its key, a zero adds nothing, and so
# no zero is ever stored.  Coefficients may be Scalars, ints or Fractions.
#
# Both write into ``out`` in place, so ``out`` must be a dict the caller
# owns: start from ``{}`` or ``dict(x)``.  Never accumulate into a dict a
# cache holds (a PBW product, an adjoint-cache [x, w], a cached monomial or
# generator lift, the Casimir, a Cartan image, a survivor slot image of the
# projection, a π image of a monomial, the coords of an existing element,
# the coordinates of a W-element).


def acc(out, key, c):
    """out[key] += c."""
    if not c:
        return
    cur = out.get(key)
    if cur is None:
        out[key] = c
        return
    cur = cur + c
    if cur:
        out[key] = cur
    else:
        del out[key]


def axpy(out, c, vec):
    """out += c * vec, for a sparse dict ``vec``."""
    # One int kernel: a rational Scalar c times a rational Scalar entry,
    # into an absent or rational running sum, multiplies and adds inline
    # when both operands are ints, as the Scalar operators do, and through
    # _qmul and _qadd when either is a Fraction.  Every other term, radical
    # or mixed, takes the Scalar operators c * v and cur + cv.  A Scalar c
    # times the shared ONE of a normal-order append is c itself; an int or
    # Fraction c is still multiplied, so every entry is a Scalar.
    one = qc = qint = None
    if c.__class__ is Scalar:
        qc = c._v
        if not qc:
            return
        one = _ONE
        if qc.__class__ is dict:
            qc = None
        qint = qc.__class__ is int
    elif not c:
        return
    get = out.get
    for key, v in vec.items():
        cur = get(key)
        if v is one:
            if cur is None:
                out[key] = c
                continue
            cv = c
        elif (qc is not None and v.__class__ is Scalar
              and (q := v._v).__class__ is not dict):
            if not q:
                continue
            w = qc * q if qint and q.__class__ is int else _qmul(qc, q)
            if cur is None:
                res = _new(Scalar)
                res._v = w
                out[key] = res
                continue
            if cur.__class__ is Scalar and (s := cur._v).__class__ is not dict:
                w = s + w if s.__class__ is w.__class__ is int else _qadd(s, w)
                if w:
                    res = _new(Scalar)
                    res._v = w
                    out[key] = res
                else:
                    del out[key]
                continue
            cv = _wrap(w)
        else:
            cv = c * v
        if cur is None:
            if cv:
                out[key] = cv
            continue
        cur = cur + cv
        if cur:
            out[key] = cur
        else:
            del out[key]
