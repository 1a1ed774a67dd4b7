"""Independent cross-checking engines used by the test suite.

Everything in here deliberately avoids the package's own algorithms:
the word rewriter works on whole words without memoization, scanning
for the last inversion instead of multiplying letter by letter, and
the dimension counts are plain generating-function walks.
"""

from fractions import Fraction

from minwsuper.scalar import Scalar, scalar


def free_normal_form(word, coeff, order, bracket, parity):
    """Straighten ``coeff * x_w1 x_w2 ...`` into sorted PBW monomials.

    ``order`` maps a basis index to its position in the PBW order,
    ``bracket(i, j)`` returns {k: Scalar} for [x_i, x_j], ``parity(i)``
    gives 0 or 1.  Returns {sorted_word: Scalar}.  Rewrites the *last*
    out-of-order pair first, one word at a time, without caching.
    """
    result = {}
    stack = [(tuple(word), scalar(coeff))]
    while stack:
        w, c = stack.pop()
        if not c:
            continue
        spot = -1
        for i in range(len(w) - 2, -1, -1):
            a, b = w[i], w[i + 1]
            if order[a] > order[b] or (a == b and parity(a)):
                spot = i
                break
        if spot < 0:
            key = tuple(w)
            acc = result.get(key, Scalar.zero()) + c
            if acc:
                result[key] = acc
            else:
                result.pop(key, None)
            continue
        a, b = w[spot], w[spot + 1]
        head, tail = w[:spot], w[spot + 2:]
        br = bracket(a, b)
        if a == b:
            # odd square: x x = [x, x] / 2
            for k, v in br.items():
                stack.append((head + (k,) + tail, c * v * Scalar.rational(Fraction(1, 2))))
        else:
            sign = Scalar.rational(-1) if parity(a) and parity(b) else Scalar.one()
            stack.append((head + (b, a) + tail, c * sign))
            for k, v in br.items():
                stack.append((head + (k,) + tail, c * v))
    return result


def count_bounded_monomials(weights, odd_flags, cap):
    """Number of exponent vectors with sum(a_i * w_i) <= cap.

    Odd letters are capped at exponent 1.  Weights must be positive
    integers; ``cap`` a nonnegative integer.
    """
    table = {0: 1}
    for w, odd in zip(weights, odd_flags):
        nxt = {}
        for used, ways in table.items():
            top = 1 if odd else (cap - used) // w
            for a in range(0, top + 1):
                tot = used + a * w
                if tot <= cap:
                    nxt[tot] = nxt.get(tot, 0) + ways
        table = nxt
    return sum(table.values())


def sympy_equals(value, expr):
    """Compare a Scalar against a sympy expression, radical by radical."""
    import sympy

    total = sympy.Integer(0)
    for key, coeff in value._terms.items():
        total += (sympy.Rational(coeff.numerator, coeff.denominator)
                  * sympy.sqrt(sympy.Integer(key)))
    # exact: equal only when sympy reduces the difference to 0
    return sympy.expand(sympy.radsimp(total - expr)) == 0
