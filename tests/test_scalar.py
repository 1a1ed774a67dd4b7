import itertools
import math
import operator
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from minwsuper.errors import PreconditionError
from minwsuper.scalar import (
    HALF,
    ONE,
    ZERO,
    Scalar,
    _frac,
    _qadd,
    _qmul,
    _qneg,
    acc,
    axpy,
    scalar,
    sqrt,
)
from oracles import sympy_equals

# every square-free product of the radicands -1, 2 and -3, 1 included
ATOMS = (-1, 2, -3)
KEYS = sorted({
    math.prod(sub)
    for r in range(len(ATOMS) + 1)
    for sub in itertools.combinations(ATOMS, r)
})

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=8)
scalars = st.builds(Scalar, st.dictionaries(st.sampled_from(KEYS), coeffs, max_size=4))
nonzero = scalars.filter(bool)
irrational = scalars.filter(lambda a: not a.is_rational())
# a rational as an int, a Fraction or an integral Fraction such as 4/2
rationals = st.one_of(st.integers(-9, 9), coeffs,
                      st.integers(-9, 9).map(lambda n: Fraction(2 * n, 2)))


def to_sympy(value):
    total = sympy.Integer(0)
    for key, coeff in value._terms.items():
        total += (sympy.Rational(coeff.numerator, coeff.denominator)
                  * sympy.sqrt(sympy.Integer(key)))
    return total


# -- ring axioms -------------------------------------------------------


@given(scalars, scalars, scalars)
def test_add_mul_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_identities(a):
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    assert a * HALF + a * HALF == a
    assert a ** 0 == ONE
    assert a ** 3 == a * a * a


@given(nonzero)
def test_inverse(a):
    assert a * a.inv() == ONE
    assert a ** -2 == a.inv() * a.inv()
    assert (ONE / a) * a == ONE


@given(scalars, nonzero)
def test_division(a, b):
    assert (a / b) * b == a


@settings(max_examples=25, deadline=None)
@given(scalars, scalars)
def test_mul_against_sympy(a, b):
    assert sympy_equals(a * b, to_sympy(a) * to_sympy(b))
    assert sympy_equals(a + b, to_sympy(a) + to_sympy(b))


@settings(max_examples=25, deadline=None)
@given(scalars, rationals)
def test_add_against_sympy(a, p):
    # a rational plus a term dict, from either side and with p as a
    # Scalar or a plain rational, adds p to the rational term only
    q = scalar(p)
    want = to_sympy(a) + p
    for got in (a + q, q + a, a + p, p + a, a - (-q), q - (-a)):
        assert sympy_equals(got, want)
        assert radical_coefficients_canonical(got), got._v
    # a sum that cancels the rational term leaves the radical terms
    r = a._terms.get(1, 0)
    got = a + scalar(-r)
    assert sympy_equals(got, to_sympy(a) - r)
    assert 1 not in got._terms


@given(scalars, scalars)
def test_hash_consistency(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_coercion():
    assert scalar(3) == Scalar({1: 3})
    assert scalar(Fraction(2, 7)) * 7 == scalar(2)
    assert 2 / scalar(4) == HALF
    assert 1 - HALF == HALF
    # a float or a bool is no coefficient, though the operators read a
    # bool operand as 0 or 1
    for bad in ("nope", 0.5, True, False):
        with pytest.raises(TypeError):
            scalar(bad)
    assert ONE + True == scalar(2)
    # Scalar(terms) reads its coefficients through scalar() and takes
    # only int radicands, and only a dict of terms
    for bad in ("1", 0.5, True):
        for terms in ({2: bad}, {bad: 1}, bad):
            with pytest.raises(TypeError):
                Scalar(terms)
    assert Scalar({2: Fraction(4, 2)}) == 2 * sqrt(2)
    # the exponent of ** is an int, never a bool, a float or a Fraction,
    # and the error names it
    for bad in (True, False, 2.0, Fraction(2), Fraction(1, 2)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            ONE ** bad


def test_scalar_is_the_only_coercion():
    # ZERO, ONE and scalar() are the one way to each of these values
    for name in ("rational", "zero", "one"):
        assert not hasattr(Scalar, name), name


def test_as_fraction():
    assert scalar(Fraction(5, 3)).as_fraction() == Fraction(5, 3)
    assert ZERO.as_fraction() == 0
    with pytest.raises(ValueError):
        (ONE + sqrt(-2)).as_fraction()


# -- the documented inverse example ------------------------------------


def test_inverse_of_one_plus_sqrt_minus_two():
    r2 = sqrt(-2)
    got = (ONE + r2).inv()
    third = scalar(Fraction(1, 3))
    assert got == third - third * r2
    assert got.render() == "1/3 - 1/3*sqrt(-2)"
    assert (ONE + r2) * got == ONE


# -- text form ----------------------------------------------------------


@given(scalars)
def test_render_parse_round_trip(a):
    assert Scalar.parse(a.render()) == a


def test_parse_forms():
    assert Scalar.parse("0") == ZERO
    assert Scalar.parse("-5/2") == scalar(Fraction(-5, 2))
    assert Scalar.parse("sqrt(8)") == Scalar({2: 2})
    assert Scalar.parse("1 + sqrt(2) - 3*sqrt(2)") == ONE - Scalar({2: 2})
    assert Scalar.parse("2/3*sqrt(-1)*sqrt(2)") == Scalar({-2: Fraction(2, 3)})
    assert Scalar.parse("sqrt(4)") == scalar(2)


@pytest.mark.parametrize("literal", [
    "1/0", "abc", "sqrt(x)", "sqrt(0)", "sqrt(1/2)", "2**3", "", "-",
    "1 + ", "sqrt(2", "2*sqrt(3)/0",
    # render writes none of these
    "1 2", "0.5", "1e3", "1_000", "sqrt(1_0)", "7 ",
])
def test_parse_rejects_malformed_literals(literal):
    # one typed error for every malformed literal, naming it; still a
    # ValueError, so callers that catch ValueError keep working
    with pytest.raises(PreconditionError) as info:
        Scalar.parse(literal)
    assert repr(literal) in str(info.value)
    assert isinstance(info.value, ValueError)


def test_parse_rejects_non_strings():
    for bad in (None, 3, Fraction(1, 2)):
        with pytest.raises(PreconditionError):
            Scalar.parse(bad)


def test_render_term_order_is_stable():
    x = sqrt(2) - sqrt(2) * sqrt(-3) + scalar(7) + sqrt(-1) * 2
    # rational part first, then radicals by radicand; sqrt(2)*sqrt(-3) is
    # the one radical sqrt(-6)
    assert x.render() == "7 - sqrt(-6) + 2*sqrt(-1) + sqrt(2)"
    assert Scalar.parse(x.render()) == x


# -- square roots --------------------------------------------------------


def test_sqrt_values():
    assert sqrt(8) == Scalar({2: 2})
    assert sqrt(2) * sqrt(2) == scalar(2)
    assert sqrt(Fraction(1, 2)) == sqrt(2) * HALF
    assert sqrt(-18) == sqrt(-2) * 3  # the same radical as sqrt(-2)
    assert sqrt(Fraction(-9, 4)) == Scalar({-1: Fraction(3, 2)})
    assert sqrt(9) == scalar(3)
    assert sqrt(16) == scalar(4)
    assert sqrt(scalar(-2)) == sqrt(-2)
    for zero in (0, Fraction(0), ZERO):
        with pytest.raises(PreconditionError):
            sqrt(zero)
    with pytest.raises(PreconditionError):
        Scalar({0: 1})
    with pytest.raises(PreconditionError):
        sqrt(sqrt(2))
    # the radicand is read through scalar()
    for bad in ("2", 1.5, True):
        with pytest.raises(TypeError):
            sqrt(bad)


def test_sqrt_products_close():
    assert (sqrt(-1) * sqrt(2)) ** 2 == scalar(-2)
    assert (sqrt(2) * sqrt(-3) * sqrt(-1)) ** 2 == scalar(6)
    got = sqrt(-2) * sqrt(-2)
    assert got == scalar(-2)


def test_dependent_radicals_are_one_number():
    # regression: sqrt(-2) and sqrt(-1)*sqrt(2) were kept as distinct terms,
    # so they compared unequal and their difference had no inverse
    assert Scalar.parse("sqrt(-2)") == Scalar.parse("sqrt(-1)*sqrt(2)")
    diff = sqrt(-2) - sqrt(-1) * sqrt(2)
    assert diff == ZERO
    with pytest.raises(ZeroDivisionError):
        diff.inv()
    x = sqrt(-1) + sqrt(2) + sqrt(-2) + sqrt(3) * sqrt(-6)
    assert x * x.inv() == ONE
    assert Scalar({-8: 1, 12: 1}) == 2 * sqrt(-2) + 2 * sqrt(3)


def test_rational_hash_matches_fraction():
    # equal values must hash alike, or sets and dict keys split them
    assert len({scalar(1), 1}) == 1
    assert hash(scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(ZERO) == hash(0)


# -- the rational fast path ---------------------------------------------


@given(rationals, rationals)
def test_rational_ops_match_fraction(p, q):
    ops = [operator.add, operator.sub, operator.mul]
    if q:
        ops.append(operator.truediv)
    for op in ops:
        got = op(scalar(p), scalar(q))
        want = op(Fraction(p), Fraction(q))
        assert got == want
        assert hash(got) == hash(want)
        assert got.is_rational()
        assert got.render() == str(want)


@settings(max_examples=25, deadline=None)
@given(rationals, irrational)
def test_rational_times_irrational_matches_sympy(p, a):
    got = scalar(p) * a
    assert sympy_equals(got, p * to_sympy(a))
    assert got.is_rational() == (p == 0)


def test_integral_values_are_one_key():
    assert len({scalar(2), Fraction(4, 2), 2}) == 1


# -- the int kernel ------------------------------------------------------


def canonical(q):
    """A rational in the kernel's form: an int when integral, else the
    Fraction."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def is_canonical(x):
    if type(x) is int:
        return True
    return (type(x) is Fraction and x.denominator > 1
            and math.gcd(x.numerator, x.denominator) == 1)


# canonical kernel operands: ints, Fractions and integral values with
# zeros, signs and common factors in reach of the cross-cancellation
kernel_operands = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=36),
    st.integers(-6, 6).map(lambda n: Fraction(6 * n, 3)),
).map(canonical)


@given(kernel_operands, kernel_operands)
def test_kernel_matches_fraction(p, q):
    for got, want in [(_qmul(p, q), Fraction(p) * Fraction(q)),
                      (_qadd(p, q), Fraction(p) + Fraction(q)),
                      (_qneg(p), -Fraction(p))]:
        assert got == want
        assert is_canonical(got), (p, q, got)
        assert hash(got) == hash(want)
        # a rational Scalar hashes like its Fraction
        assert hash(scalar(got)) == hash(want)


@given(st.integers(-10**6, 10**6), st.integers(2, 10**6))
def test_frac_is_a_fraction(n, d):
    want = Fraction(n, d)
    if want.denominator == 1:
        return
    got = _frac(want.numerator, want.denominator)
    assert type(got) is Fraction
    assert got == want and want == got
    assert (got.numerator, got.denominator) == (
        want.numerator, want.denominator)
    assert hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    assert got + 1 == want + 1 and got * 2 == want * 2


def radical_coefficients_canonical(x):
    v = x._v
    return v.__class__ is not dict or all(
        c and is_canonical(c) for c in v.values())


@given(scalars, scalars, rationals)
def test_radical_coefficients_are_canonical(a, b, p):
    # never a zero and never an integral Fraction among the term coefficients
    results = [a, -a, a + b, a - b, a * b, a * p, a + p, p - a,
               Scalar.parse(a.render())]
    if a:
        results.append(a.inv())
    if p:
        results.append(sqrt(p))
    for x in results:
        assert radical_coefficients_canonical(x), x._v


# one-atom values q*sqrt(k), the shapes of the engine's coefficients: k = 1
# is a rational, and q = 0 makes a zero Scalar
atoms = st.builds(lambda k, q: Scalar({k: q}), st.sampled_from((1, -2, 2)),
                  coeffs)


@given(st.lists(st.tuples(st.integers(0, 5), st.one_of(
    rationals, scalars, atoms, st.just(ZERO))), max_size=8),
    st.one_of(rationals, scalars, atoms),
    st.lists(st.one_of(scalars, atoms), min_size=2, max_size=2))
def test_axpy_matches_operators(entries, c, sums):
    # the kernel path of axpy gives what the Scalar operators give, for a
    # rational, one-radical or general c, with zero entries among those
    # drawn; odd keys hold Scalars, even keys whatever was drawn; the sum
    # starts rational at keys 0 and 1, irrational at 2, absent at 3 and
    # drawn (rational, one-radical or general) at 4 and 5
    vec = {key: scalar(v) if key % 2 else v for key, v in entries}
    out = {0: scalar(3), 1: ONE, 2: sqrt(-2)}
    out.update({key: s for key, s in enumerate(sums, 4) if s})
    want = dict(out)
    axpy(out, scalar(c), vec)
    for key, v in vec.items():
        want[key] = want.get(key, ZERO) + scalar(c) * v
    assert out == {k: v for k, v in want.items() if v}
    assert all(type(v) is Scalar and v for v in out.values())
    assert all(is_canonical(v._v) or radical_coefficients_canonical(v)
               and set(v._v) != {1} for v in out.values())


# deterministic axpy cases, one per term shape that once had a one-radical
# kernel of its own: (sum before, c, vec, key order after).  The orders
# are those that kernel gave (at f8548ab): a present key keeps its place,
# a new key is appended and a cancelled key is deleted
_R, _S, _I = sqrt(-2), sqrt(2), sqrt(-1)
_THIRD = scalar(Fraction(1, 3))
AXPY_CASES = [
    # sqrt(-2) * sqrt(-2) into rational sums, one of which cancels
    ({"a": scalar(3), "b": scalar(2), "c": HALF}, _R,
     {"b": _R, "n": _R * _THIRD, "a": _R}, ["a", "c", "n"]),
    # sqrt(2) * sqrt(-1) makes sqrt(-2): new, onto a sqrt(-2) sum, cancelling
    ({"x": _R, "y": ONE, "z": -_R}, _S, {"n": _I, "z": _I, "x": 2 * _I,
                                         "y": _I}, ["x", "y", "n"]),
    # radical running sums that cancel delete their keys
    ({"p": 3 * _R, "q": ONE, "t": _R + 1, "u": -_S}, _R,
     {"u": -_I, "p": scalar(-3), "t": -HALF * _R, "v": ONE},
     ["q", "t", "v"]),
    # int and Fraction entries, a zero among them, with a radical c
    ({"i": _R, "k": ONE}, _R, {"f": Fraction(1, 2), "i": -1, "k": 4, "j": 0},
     ["k", "f"]),
    # a multi-term c onto rational, radical, general and absent sums
    ({"a": ONE, "b": _R, "c": ONE + _R, "d": _S}, ONE + _R,
     {"d": _S, "n": _R, "c": -ONE, "a": ONE, "b": _THIRD},
     ["a", "b", "d", "n"]),
]


@pytest.mark.parametrize("before, c, vec, order", AXPY_CASES)
def test_axpy_radical_cases(before, c, vec, order):
    # every radical or mixed term gives what the Scalar operators give, a
    # canonical Scalar, in the key order of the one-radical kernel
    out = dict(before)
    want = dict(before)
    for key, v in vec.items():
        want[key] = want.get(key, ZERO) + c * v
    axpy(out, c, vec)
    assert out == {k: v for k, v in want.items() if v}
    assert list(out) == order
    assert all(type(v) is Scalar and v for v in out.values())
    assert all(is_canonical(v._v) or radical_coefficients_canonical(v)
               and set(v._v) != {1} for v in out.values())


@settings(max_examples=15, deadline=None)
@given(nonzero, nonzero)
def test_inverse_matches_sympy(a, b):
    prod = a * b
    if prod:
        want = 1 / (to_sympy(a) * to_sympy(b))
        assert sympy_equals(prod.inv(), want)
        # negative control: an inverse off by one must not compare equal
        assert not sympy_equals(prod.inv() + ONE, want)


def test_acc_rules():
    out = {}
    acc(out, "a", scalar(3))
    assert out == {"a": 3}
    # an absent key stores the value itself, not a sum built from zero
    c = scalar(Fraction(1, 2))
    acc(out, "b", c)
    assert out["b"] is c
    acc(out, "a", scalar(2))
    assert out == {"a": 5, "b": c}
    # a sum that cancels deletes its key
    acc(out, "a", scalar(-5))
    assert out == {"b": c}
    # a zero adds nothing, to a present or an absent key
    acc(out, "b", ZERO)
    acc(out, "z", ZERO)
    assert out == {"b": c}
    # irrational values accumulate and cancel the same way
    r = sqrt(-2)
    acc(out, "r", r)
    acc(out, "r", r)
    assert out["r"] == 2 * r and not out["r"].is_rational()
    acc(out, "r", -2 * r)
    assert out == {"b": c}


def test_axpy_rules():
    vec = {"a": ONE, "b": scalar(Fraction(-1, 3)), "c": sqrt(-2)}
    out = {}
    axpy(out, scalar(3), vec)
    assert out == {"a": 3, "b": -1, "c": 3 * sqrt(-2)}
    # a zero multiple is a no-op
    axpy(out, ZERO, vec)
    assert out == {"a": 3, "b": -1, "c": 3 * sqrt(-2)}
    # cancelling entries are deleted, the others kept
    axpy(out, scalar(-3), {"a": ONE, "c": sqrt(-2), "d": HALF})
    assert out == {"b": -1, "d": Fraction(-3, 2)}
    # an irrational multiple; no zero is ever stored
    r = sqrt(-2)
    axpy(out, r, {"b": ONE, "e": r})
    assert out == {"b": r - 1, "d": Fraction(-3, 2), "e": -2}
    axpy(out, -r, {"b": ONE, "e": r})
    assert out == {"b": -1, "d": Fraction(-3, 2)}
    assert all(out.values())
    # a stored zero in the added vector is skipped, not copied
    axpy(out, ONE, {"z": ZERO})
    assert "z" not in out


def test_axpy_one_atom_kernel():
    # q sqrt(k) times a rational, q sqrt(k) times q' sqrt(k), and sums on one
    # atom store canonical values
    r = sqrt(-2)
    third = Fraction(1, 3)
    out = {"sum": r * 3, "rat": HALF}
    axpy(out, r * third, {"sum": scalar(2), "rat": r * 3, "new": r,
                          "zero": ZERO, "other": sqrt(2)})
    assert out == {"sum": r * Fraction(11, 3), "rat": Fraction(-3, 2),
                   "new": Fraction(-2, 3), "other": Scalar({-1: 2 * third})}
    assert out["sum"]._v == {-2: Fraction(11, 3)}
    assert out["rat"]._v == Fraction(-3, 2)
    assert out["new"]._v == Fraction(-2, 3)
    # a one-atom sum that cancels deletes its key, radical or rational
    axpy(out, r, {"sum": scalar(Fraction(-11, 3)), "new": r * -third})
    assert out == {"rat": Fraction(-3, 2), "other": Scalar({-1: 2 * third})}


def test_axpy_keeps_a_scalar_multiple_of_one():
    # a Scalar times the shared ONE is stored as that Scalar itself; an
    # int or a Fraction multiple is still multiplied, so every stored
    # coefficient is a Scalar
    third = scalar(Fraction(1, 3))
    for c in (scalar(Fraction(-2, 3)), 4, Fraction(5, 2)):
        out = {}
        axpy(out, c, {"one": ONE, "third": third})
        assert out == {"one": c, "third": c * third}, c
        assert all(type(v) is Scalar for v in out.values()), c
        if type(c) is Scalar:
            assert out["one"] is c
    # an irrational Scalar too, and a present key still sums
    r = sqrt(-2)
    out = {"one": ONE}
    axpy(out, r, {"one": ONE, "new": ONE})
    assert out["new"] is r and out["one"] == r + 1
