"""PBW normal forms in enveloping algebras of the graded letters.

Elements are dicts mapping normal words (tuples of letters, positions
nondecreasing, odd letters never repeated) to scalars.  The letter order
is the one fixed by the grading: ad-h degree descending, so e comes
first and f last; that makes the nilpotent part trail every word, which
is what the finite quotient needs.
"""

from fractions import Fraction

from .errors import PreconditionError
from .scalar import HALF, ONE, ZERO, Scalar, scalar


def kazhdan_weights(grading):
    """Letter weights of the Kazhdan filtration: ad-h degree plus two."""
    return {i: d + 2 for i, d in enumerate(grading.degrees)}


def _acc(out, word, c):
    cur = out.get(word, ZERO) + c
    if cur:
        out[word] = cur
    else:
        out.pop(word, None)


class PBWAlgebra:
    """U(g) (or U of a letter-closed subalgebra) with straightening.

    ``letters`` restricts to a subalgebra; it must be closed under the
    bracket.  Multiplication is letter-by-letter with memoization, so
    repeated products of the same generators stay cheap.
    """

    def __init__(self, g, letters=None, weights=None):
        self.g = g
        self.letters = tuple(letters) if letters is not None else tuple(
            range(g.dim))
        self.pos = {x: p for p, x in enumerate(self.letters)}
        if len(self.pos) != len(self.letters):
            raise PreconditionError("repeated letters")
        for a in self.letters:
            for b in self.letters:
                out = g.bracket({a: ONE}, {b: ONE})
                if any(k not in self.pos for k in out):
                    raise PreconditionError(
                        "letters are not bracket closed at (%d, %d)" % (a, b))
        self.weights = dict(weights) if weights else None
        self._cache = {}

    # -- basic elements ----------------------------------------------------

    def unit(self):
        return {(): ONE}

    def inject(self, x):
        """A coordinate dict over letters, as a degree-one element."""
        out = {}
        for i, c in x.items():
            if i not in self.pos:
                raise PreconditionError("letter %s not in this algebra" % i)
            if c:
                out[(i,)] = c
        return out

    def word_parity(self, word):
        return sum(self.g.parity[i] for i in word) % 2

    def element_parity(self, a):
        seen = {self.word_parity(w) for w in a}
        if len(seen) > 1:
            return None
        return seen.pop() if seen else 0

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        out = dict(a)
        for w, c in b.items():
            _acc(out, w, c)
        return out

    def scale(self, c, a):
        c = scalar(c)
        if not c:
            return {}
        return {w: v * c for w, v in a.items()}

    def sub(self, a, b):
        return self.add(a, self.scale(-1, b))

    def _mul_letter(self, word, x):
        key = (word, x)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if not word:
            out = {(x,): ONE}
        else:
            last = word[-1]
            head = word[:-1]
            if last == x:
                if self.g.parity[x]:
                    # odd square: x x = [x, x] / 2
                    out = {}
                    br = self.g.bracket({x: ONE}, {x: ONE})
                    for k, ck in br.items():
                        for w2, c2 in self._mul_letter(head, k).items():
                            _acc(out, w2, c2 * ck * HALF)
                else:
                    out = {word + (x,): ONE}
            elif self.pos[last] < self.pos[x]:
                out = {word + (x,): ONE}
            else:
                out = {}
                sign = -ONE if self.g.parity[last] and self.g.parity[x] \
                    else ONE
                for w1, c1 in self._mul_letter(head, x).items():
                    for w2, c2 in self._mul_letter(w1, last).items():
                        _acc(out, w2, c1 * c2 * sign)
                br = self.g.bracket({last: ONE}, {x: ONE})
                for k, ck in br.items():
                    for w2, c2 in self._mul_letter(head, k).items():
                        _acc(out, w2, c2 * ck)
        self._cache[key] = out
        return out

    def _mul_word(self, wa, wb):
        """Normal form of the word product wa * wb; may be a cached dict
        of the letter cache, so callers only read it."""
        if not wb:
            return {wa: ONE}
        cur = self._mul_letter(wa, wb[0])
        for x in wb[1:]:
            nxt = {}
            for w, c in cur.items():
                for w2, c2 in self._mul_letter(w, x).items():
                    _acc(nxt, w2, c * c2)
            cur = nxt
        return cur

    def mul(self, a, b):
        out = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                c = ca * cb
                if not c:
                    continue
                for w, cw in self._mul_word(wa, wb).items():
                    _acc(out, w, c * cw)
        return out

    def from_words(self, pairs):
        """Normal form of arbitrary (word, coeff) pairs."""
        out = {}
        for word, coeff in pairs:
            coeff = scalar(coeff)
            if not coeff:
                continue
            for w, c in self._mul_word((), tuple(word)).items():
                _acc(out, w, c * coeff)
        return out

    def commutator(self, a, b):
        """The superbracket a b - (-1)^{|a||b|} b a, by parity components."""
        out = {}
        for pa in (0, 1):
            aa = {w: c for w, c in a.items() if self.word_parity(w) == pa}
            if not aa:
                continue
            for pb in (0, 1):
                bb = {w: c for w, c in b.items() if self.word_parity(w) == pb}
                if not bb:
                    continue
                piece = self.mul(aa, bb)
                back = self.mul(bb, aa)
                if pa and pb:
                    piece = self.add(piece, back)
                else:
                    piece = self.sub(piece, back)
                out = self.add(out, piece)
        return out

    def ad(self, x, a):
        """ad of a letter-supported coordinate dict on an element."""
        return self.commutator(self.inject(x), a)

    # -- filtration and quotients -------------------------------------------

    def kazhdan_degree(self, a):
        if self.weights is None:
            raise PreconditionError("no letter weights attached")
        if not a:
            return None
        return max(sum(self.weights[i] for i in w) for w in a)

    def project_qfin(self, a, f_letter, value=ONE):
        """Image in U/(U (f - value)); strips trailing runs of f."""
        out = {}
        for w, c in a.items():
            m = 0
            while m < len(w) and w[len(w) - 1 - m] == f_letter:
                m += 1
            scalefac = c
            for _ in range(m):
                scalefac = scalefac * value
            _acc(out, w[: len(w) - m], scalefac)
        return out

    def is_invariant(self, a, ad_letters, project=None):
        """None when every ad letter kills ``a``; else (letter, residual)."""
        for b in ad_letters:
            res = self.ad({b: ONE}, a)
            if project is not None:
                res = project(res)
            if res:
                return (b, res)
        return None


def render_element(pbw, a, labels=None):
    """Sorted, human-readable form; mainly for reports and errors."""
    if not a:
        return "0"
    labels = labels or pbw.g.labels
    parts = []
    for w in sorted(a, key=lambda w: (len(w), w)):
        body = "*".join(labels[i] for i in w) if w else "1"
        parts.append("(%s)%s" % (a[w].render(), "*" + body if w else ""))
    return " + ".join(parts)
