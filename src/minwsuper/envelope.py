"""PBW normal forms in enveloping algebras of the graded letters.

Elements are dicts mapping normal words (tuples of letters, positions
nondecreasing, odd letters never repeated) to scalars.  The letter order
is the one fixed by the grading: ad-h degree descending, so e comes
first and f last; that makes the nilpotent part trail every word, which
is what the finite quotient needs.

Straightening is letter by letter.  A product ``word * x`` that is already
in normal order (``word`` empty, ``x`` after its last letter, or an even
``x`` repeating it) is the word with ``x`` appended and is built on the spot;
only products that need rewriting go into the letter cache.

A product ``a * b`` of two elements is the sum over the terms cb wb of
``b`` of cb (a wb), and a wb folds all of ``a`` letter by letter through
wb, so a word that the folds of several words of ``a`` reach is multiplied
by the next letter once.  By associativity the sum is the word-pair sum
of ca cb (wa wb).

The adjoint action of one letter, ``ad(x, a) = [x, a]``, serves the
invariance check of each generator lift and the super-Leibniz commutator
below, and both meet the same few words again and again.  So each [x, w]
for a letter x and a normal word w = u v, v its last letter, is built
once by the super-Leibniz rule [x, u v] = [x, u] v + (-1)^{|x||u|} u [x, v],
[x, u] read from the same cache and [x, v] from the bracket row, and kept
in the adjoint cache next to the letter cache, empty when it cancels; a
word whose letters all supercommute with x has [x, w] = 0 and is neither
built nor cached.

A commutator [a, b] follows the super-Leibniz rule: each letter of a word
of ``a`` is replaced in turn by its bracket with one parity part of ``b``,
read through ``ad``, with the sign of moving that part past the letters
after it.  The adjoint cache is the only memo of [x, .]: the commutator
keeps none of its own, and the two full products of a word pair, whose
leading terms cancel, are never formed.

The same rule straightens any presentation: letters with parities and a
bracket row [a, b] over normal words per pair.  U(g) hands out g's rows
in place as one-letter words; ``PBWAlgebra.presented`` reads the upper
triangle over exponent tuples in which U(g, e) and its Cartan subquotient
state their relations, turning each row into words on its first read and
the reversed pair by the supersign.  For a table not known to come from
an algebra, associativity on triples of letters is the overlap check of
the diamond lemma (de Graaf, *Lie Algebras: Theory and Algorithms*,
ch. 6).

An algebra keeps only what it multiplies with; the Kazhdan filtration and
the letter names belong to the W-superalgebra workspace in ``wgen``.
"""

from .errors import PreconditionError
from .scalar import HALF, ONE, acc, axpy, scalar


def from_exponents(coords):
    """A dict over exponent tuples as one over the normal words."""
    return {sum(((k,) * n for k, n in enumerate(e) if n), ()): c
            for e, c in coords.items()}


class PBWAlgebra:
    """U(g) with straightening; the letters are the basis indices of g.
    ``presented`` builds the algebra of a presentation instead.

    It holds only what it multiplies with: letter parities, bracket rows
    and its caches.  Multiplication is letter-by-letter with memoization,
    so repeated products of the same generators stay cheap.

    Elements are plain dicts; the algebra only multiplies them.  Sums and
    multiples are formed with ``scalar.acc``/``scalar.axpy`` into a dict
    the caller owns, never into a product this algebra returned, which
    may be a letter-cache entry.
    """

    def __init__(self, g):
        bracket = g.bracket_basis
        self._start(g.parity, bracket,
                    lambda a, b: [((k,), c) for k, c in bracket(a, b).items()])

    @classmethod
    def presented(cls, names, parities, table):
        """The algebra on letters 0, 1, ... named ``names``, of the given
        parities, with [x_i, x_j] = ``table[(names[i], names[j])]`` over
        exponent tuples for i <= j, 0 where it has none.
        Each nonempty row is turned into words on its first read, the
        reversed pair (j, i) with the supersign, so a row of ``table`` may
        still be filled after the build as long as nothing has read it."""
        rows = {}

        def entry(a, b):
            return table.get((names[min(a, b)], names[max(a, b)]))

        def row(a, b):
            got = rows.get((a, b))
            if got is None:
                got = entry(a, b)
                got = from_exponents(got) if got else {}
                if a > b and not (parities[a] and parities[b]):
                    got = {w: -c for w, c in got.items()}
                got = rows[a, b] = tuple(got.items())
            return got

        pbw = object.__new__(cls)
        pbw._start(tuple(parities), entry, row)
        return pbw

    def _start(self, parity, nonzero, row):
        self.parity = parity
        # (a, b) -> the (normal word, coefficient) terms of [a, b]
        self._row = row
        self._nonzero = nonzero
        # letter -> the letters it does not supercommute with, built on the
        # letter's first ``ad``
        self._partners = {}
        self._cache = {}
        # (letter, normal word) -> [letter, word], empty when it cancels
        self._ad_cache = {}

    # -- basic elements ----------------------------------------------------

    def unit(self):
        return {(): ONE}

    def _term(self, word, c):
        """``c`` read by ``scalar``, once each letter of ``word`` is an int
        letter of this algebra; ``inject`` and ``from_words`` read every
        term through it."""
        for i in word:
            if type(i) is not int or not 0 <= i < len(self.parity):
                raise PreconditionError("letter %r not in this algebra" % (i,))
        return scalar(c)

    def inject(self, x):
        """A coordinate dict over letters, as a degree-one element."""
        out = {}
        for i, c in x.items():
            if c := self._term((i,), c):
                out[(i,)] = c
        return out

    def exponents(self, a):
        """``a`` over exponent tuples, the count of each letter per word."""
        letters = range(len(self.parity))
        return {tuple(map(w.count, letters)): c for w, c in a.items()}

    def word_parity(self, word):
        return sum(self.parity[i] for i in word) % 2

    def element_parity(self, a):
        seen = {self.word_parity(w) for w in a}
        if len(seen) > 1:
            return None
        return seen.pop() if seen else 0

    # -- arithmetic ---------------------------------------------------------

    def _mul_letter(self, word, x):
        """Normal form of word * x.  A normal-order append is built fresh;
        any other product is the letter cache's dict, so callers only read
        it."""
        if not word:
            return {(x,): ONE}
        last = word[-1]
        parity = self.parity
        if last < x or (last == x and not parity[x]):
            return {word + (x,): ONE}
        key = (word, x)
        out = self._cache.get(key)
        if out is not None:
            return out
        out = {}
        head = word[:-1]
        if last == x:
            # odd square: x x = [x, x] / 2
            for u, cu in self._row(x, x):
                axpy(out, cu * HALF, self._mul_word(head, u))
        else:
            sign = -ONE if parity[last] and parity[x] else ONE
            for w1, c1 in self._mul_letter(head, x).items():
                axpy(out, c1 * sign, self._mul_letter(w1, last))
            for u, cu in self._row(last, x):
                axpy(out, cu, self._mul_word(head, u))
        self._cache[key] = out
        return out

    def _fold(self, cur, word):
        """cur * word, all of ``cur`` folded letter by letter through
        ``word``; callers only read the result, which may be ``cur``."""
        for x in word:
            nxt = {}
            for w, c in cur.items():
                axpy(nxt, c, self._mul_letter(w, x))
            cur = nxt
        return cur

    def _mul_word(self, wa, wb):
        """Normal form of the word product wa * wb; may be a cached dict
        of the letter cache, so callers only read it."""
        if not wb:
            return {wa: ONE}
        cur = self._mul_letter(wa, wb[0])
        return self._fold(cur, wb[1:]) if len(wb) > 1 else cur

    def mul(self, a, b):
        """a * b as the sum of cb * (a * wb) over the terms cb wb of ``b``,
        each a * wb folding all of ``a`` through wb."""
        out = {}
        for wb, cb in b.items():
            axpy(out, cb, self._fold(a, wb))
        return out

    def from_words(self, pairs):
        """Normal form of arbitrary (word, coeff) pairs."""
        out = {}
        for word, coeff in pairs:
            word = tuple(word)
            axpy(out, self._term(word, coeff), self._mul_word((), word))
        return out

    def commutator(self, a, b, skip=()):
        """The superbracket a b - (-1)^{|a||b|} b a by the super-Leibniz
        rule: for each word x_1...x_m of ``a`` and each parity part b_p of
        ``b``, the sum over i of (-1)^{p |x_{i+1}...x_m|} x_1...x_{i-1}
        [x_i, b_p] x_{i+1}...x_m.  Each [x_i, b_p] is ``ad(x_i, b_p)``, whose
        words come from the adjoint cache, the one memo of [x, .], so the
        two full products of a word pair, whose leading terms cancel, are
        never formed.  The terms at a letter x_i in ``skip`` are left out;
        a caller passes letters whose terms it knows to vanish in its
        quotient."""
        parity = self.parity
        parts = {}
        for wb, cb in b.items():
            parts.setdefault(self.word_parity(wb), {})[wb] = cb
        out = {}
        for wa, ca in a.items():
            for p, bp in parts.items():
                odd_tail = 0
                for i in range(len(wa) - 1, -1, -1):
                    x = wa[i]
                    if x not in skip and (inner := self.ad(x, bp)):
                        head, tail = wa[:i], wa[i + 1:]
                        mid = inner
                        if head:
                            mid = {}
                            for u, cu in inner.items():
                                axpy(mid, cu, self._mul_word(head, u))
                        c = -ca if p and odd_tail else ca
                        for w, cw in mid.items():
                            axpy(out, c * cw, self._mul_word(w, tail))
                    odd_tail ^= parity[x]
        return out

    def ad(self, x, a):
        """[x, a] for the letter x, as the sum of c [x, w] over the terms
        c w of ``a``, each [x, w] read from the adjoint cache."""
        out = {}
        partners = self._partners.get(x)
        if partners is None:
            partners = self._partners[x] = {
                b for b in range(len(self.parity)) if self._nonzero(x, b)}
        for w, c in a.items():
            if not partners.isdisjoint(w):
                axpy(out, c, self._ad_word(x, w, partners))
        return out

    def _ad_word(self, x, w, partners):
        """The adjoint-cache entry [x, w], built by the super-Leibniz rule
        over the last letter v of w = u v; w meets ``partners``, the
        letters x does not supercommute with."""
        vec = self._ad_cache.get((x, w))
        if vec is None:
            vec = {}
            head, v = w[:-1], w[-1]
            if not partners.isdisjoint(head):
                for u, cu in self._ad_word(x, head, partners).items():
                    axpy(vec, cu, self._mul_letter(u, v))
            odd = self.parity[x] and self.word_parity(head)
            for u, cu in self._row(x, v):
                axpy(vec, -cu if odd else cu, self._mul_word(head, u))
            self._ad_cache[(x, w)] = vec
        return vec

    # -- quotients -----------------------------------------------------------

    def project_qfin(self, a, f_letter):
        """Image in U/(U (f - 1)); strips trailing runs of f."""
        out = {}
        for w, c in a.items():
            m = len(w)
            while m and w[m - 1] == f_letter:
                m -= 1
            acc(out, w[:m], c)
        return out

    def is_invariant(self, a, ad_letters, project):
        """None when every ad letter kills ``a`` up to ``project``; else
        (letter, residual)."""
        for b in ad_letters:
            if res := project(self.ad(b, a)):
                return (b, res)
        return None


def render_element(labels, a):
    """Sorted, human-readable form over ``labels``; for reports and errors."""
    if not a:
        return "0"
    parts = []
    for w in sorted(a, key=lambda w: (len(w), w)):
        body = "*".join(labels[i] for i in w) if w else "1"
        parts.append("(%s)%s" % (a[w].render(), "*" + body if w else ""))
    return " + ".join(parts)
