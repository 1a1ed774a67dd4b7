"""Generators of the minimal W-superalgebra and their relation suite.

The ambient object is the finite quotient: enveloping-algebra normal
forms with trailing runs of the lowest root vector replaced by 1.  The
generator map attaches a correcting tail to every centralizer element
of degree 0 or 1; together with one Casimir element (and, in type odd,
the bare midline coset) these close under supercommutators.  The
correcting tail is stated once, in ``WAlgebra._tail``: tail(y) =
sum_k z_k [z*_k, y] over the degree -1 dual bases {z_k}, {z*_k}.  A
degree-0 lift is v - tail(v)/2, a degree-1 lift w - tail(w) + 1/3 sum_a
z_a tail([z*_a, w]) - 2/3 [w, f].

Each generator is built and certified once, in ``WAlgebra.generators``,
and every element formed from generators inherits finite invariance
(``WElement``).  A W-element lives on its coordinates over the ordered
generator monomials.

``closed_form_table`` states every generator supercommutator in
closed form, from the structure constants of g and c0 alone: the
presentation by Theta_v, Theta_w, C and F.  ``commutator_table``
certifies it from a generating set, by the argument of
``superalgebra._reach``, or falls back to straightening every pair in
U(g).  The workspace keeps one presented U(g, e) over the certified
table, ``WAlgebra.uge``; ``w_multiply`` and ``w_commutator`` are its
product and supercommutator on coordinates.  ``verify_relations`` reads
the table by generator position, and every group that checks a table
entry reads the entry minus its closed form; coordinates over ordered
monomials are unique, so equal entries certify the presentation.
Theta_Cas, the Casimir of g(0)# lifted by Theta, is stated once, in
``uge``, and the report brackets it there with every degree-0
generator.  The raiser square Theta(g_mid)^2 is formed from the lifts
and must be half the closed (g_mid, g_mid) entry, since Theta(g_mid) is
odd.  ``pbw_coordinates`` peels a coset of U(g) to its coordinates: the
top part of an ordered monomial is led by the product of its
generators' leading letters, so the leading word of a coset's top part
names the next monomial to subtract.  It serves the sides that U(g)
checks on its own: the straightened table, and elements built from a
value.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from .envelope import PBWAlgebra, from_exponents, render_element
from .errors import ConsistencyError, PreconditionError, check_type
from .grading import (MinimalGrading, admissible_subalgebras, neg_one_bases,
                      weights_delta_rho)
from .scalar import HALF, ONE, ZERO, acc, axpy, scalar
from .superalgebra import _reach, _seeds

RELATION_SUITE = "minimal-w-relations/1"

THIRD = scalar(Fraction(1, 3))


def kazhdan_weights(grading):
    """Letter weights of the Kazhdan filtration: ad-h degree plus two."""
    check_type(grading, MinimalGrading)
    return {i: d + 2 for i, d in enumerate(grading.degrees)}


def _vec_sub(x, y):
    out = dict(x)
    axpy(out, -ONE, y)
    return out


def _entry(gens, source, a, b):
    """Coordinates of [gens[a], gens[b]] in ``source``, a table keyed by
    ordered name pairs; a reversed pair picks up -(-1)^{|a||b|}."""
    coords = source[(gens[min(a, b)].name, gens[max(a, b)].name)]
    if a > b and not (gens[a].parity and gens[b].parity):
        return {e: -c for e, c in coords.items()}
    return coords


def _monomial_text(names, expo):
    """``name`` or ``name^n`` per nonzero exponent, joined by ``*``;
    ``1`` for the empty monomial."""
    parts = [name if n == 1 else "%s^%d" % (name, n)
             for name, n in zip(names, expo) if n]
    return "*".join(parts) or "1"


def render_monomial(wal, expo):
    """Human-readable ordered monomial, e.g. ``y1*C^2``."""
    return _monomial_text([gen.name for gen in wal.generators], expo)


def _render_coords(wal, coords):
    parts = ["(%s)*%s" % (c.render(), render_monomial(wal, expo))
             for expo, c in sorted(coords.items())]
    return " + ".join(parts) if parts else "0"


class WElement:
    """An element of U(g,e), an invariant coset in the finite quotient,
    kept as its coordinates over the ordered generator monomials.  Its
    normal-form ``value``, free of the lowest root vector, is evaluated on
    first read, and ``WElement(wal, value)`` is peeled once.
    Only generators are certified, where they are built: F for the letters
    of nzero, f and the degree -1 block without the midline letter, the
    others for those of nprime, f and the whole block.  nzero lies in
    nprime, so all are nzero-invariant.  For a letter x of nzero,
    ad_x(ab) = ad_x(a) b +- a ad_x(b), U(g)(f-1) is a left ideal, and
    U(g)(f-1) b lies in it when [f, b] does, as f is in nzero; so the
    nzero-invariant cosets form a subalgebra, and sums, products,
    supercommutators, coordinate evaluations and weight components
    inherit nzero invariance.  No more holds in general: on spo:2|3, F C
    is not nprime-invariant.
    """

    __slots__ = ("wal", "_value", "_coords")

    def __init__(self, wal, value):
        self.wal = wal
        self._value = value
        self._coords = None

    @property
    def value(self):
        if self._value is None:
            self._value = {}
            for expo, c in self._coords.items():
                axpy(self._value, c, self.wal.monomial(expo))
        return self._value

    @property
    def kdeg(self):
        gens = self.wal.generators
        return max((sum(n * gen.weight for n, gen in zip(expo, gens))
                    for expo in self._coordinates()), default=None)

    def is_zero(self):
        return not self._coordinates()

    def as_finite(self):
        """The element itself, as every W-element is finite-invariant."""
        return self

    def _coordinates(self):
        """The coordinates, peeled once from a value; callers read only."""
        if self._coords is None:
            self._coords = self.wal.pbw_coordinates(self._value)
        return self._coords

    def __eq__(self, other):
        return (isinstance(other, WElement) and self.wal is other.wal
                and self._coordinates() == other._coordinates())

    def __repr__(self):
        return "WElement(%s)" % render_element(self.wal.algebra.labels,
                                              self.value)


class Generator:
    __slots__ = ("name", "letter", "weight", "parity", "element")

    def __init__(self, name, letter, weight, parity, element):
        self.name = name
        self.letter = letter
        self.weight = weight
        self.parity = parity
        self.element = element


class WAlgebra:
    """Workspace tied to one minimal grading, which owns it.

    Holds the Kazhdan filtration, the normal-form algebra, the degree -1
    dual bases and lazily built generators, plus the data derived from
    them elsewhere; every public module function routes through the
    grading's one workspace so repeated queries share the caches.
    """

    def __init__(self, grading):
        self.grading = grading
        self.algebra = grading.algebra
        self.weights = kazhdan_weights(grading)
        self.pbw = PBWAlgebra(grading.algebra)
        self.nb = neg_one_bases(grading)
        self.sub = admissible_subalgebras(grading)
        self._nzero = frozenset(self.sub["nzero"])
        self.ge0_letters = (tuple(grading.hes) + tuple(grading.xs)
                            + tuple(grading.xstars) + tuple(grading.ys)
                            + tuple(grading.ystars))
        g1 = list(grading.fs) + list(grading.fstars) + list(grading.gs)
        g1 += list(grading.gstars)
        if grading.gmid is not None:
            g1.append(grading.gmid)
        self.g1_letters = tuple(g1)
        self._centralizer = frozenset(grading.centralizer_letters())
        # letter -> its generator's element, filled with the generator list
        self._theta_cache = {}
        # exponent tuple -> ordered monomial, the one straightening cache
        self._mono_cache = {}
        # the generator list, with name -> position and leading letter ->
        # position (C under e), built together
        self._gens = None
        self._name_pos = None
        self._lead_pos = None
        self._c0 = None
        self._wd = None
        # the presented U(g, e) and Theta_Cas in it, kept by ``_present``
        self._uge = None
        self._cas = None
        self._table = None
        self._closed = None
        # memo slots of cartanw.build_cartan_w and cartanw.restricted_roots
        self._cartan = None
        self._roots = None

    # -- quotient arithmetic --------------------------------------------

    def project(self, a):
        return self.pbw.project_qfin(a, self.grading.f)

    def mul_raw(self, a, b):
        return self.project(self.pbw.mul(a, b))

    def comm_raw(self, a, b):
        """project([a, b]) for a finite-invariant ``b``, as every generator
        and ``WElement`` is.  The terms at letters x_i of nzero are skipped:
        [x_i, b] = R (f - 1), and the later letters of a normal word have
        degree -1 or -2 and commute with f, so each lies in U(g)(f - 1)."""
        return self.project(self.pbw.commutator(a, b, skip=self._nzero))

    def word_weight(self, word):
        return sum(self.weights[i] for i in word)

    def kazhdan_degree(self, a):
        """The top Kazhdan weight of a word of ``a``; None for 0."""
        return max(map(self.word_weight, a), default=None)

    def certify(self, value, letters):
        """Wrap a coset after checking that the twisted adjoint action of
        each of ``letters`` kills it."""
        bad = self.pbw.is_invariant(value, letters, project=self.project)
        if bad is not None:
            letter, residual = bad
            raise ConsistencyError(
                "coset not invariant: ad %s leaves %s" % (
                    self.algebra.labels[letter],
                    render_element(self.algebra.labels, residual)))
        return WElement(self, value)

    @property
    def weight_data(self):
        if self._wd is None:
            self._wd = weights_delta_rho(self.grading)
        return self._wd

    # -- generators -------------------------------------------------------

    def _tail(self, out, c, x, y):
        """out += c x tail(y) in U(g), for a vector ``y`` of g and a left
        factor ``x`` of U(g), added term by term as (x z_k) [z*_k, y].
        Summing in place keeps the words of a lift in the order of its
        formula written out: a word whose running sum passes through zero
        moves to the end."""
        g, pbw = self.algebra, self.pbw
        for z, zst in zip(self.nb["z"], self.nb["zstar"]):
            zy = g.bracket(zst, y)
            if zy:
                axpy(out, c, pbw.mul(pbw.mul(x, pbw.inject(z)),
                                     pbw.inject(zy)))

    def _lift_zero(self, v):
        """The lift of a degree-0 centralizer element: v - tail(v)/2."""
        out = self.pbw.inject(v)
        self._tail(out, -HALF, self.pbw.unit(), v)
        return self.project(out)

    def _lift_one(self, w):
        """The lift of a degree-1 element: w - tail(w) + 1/3 sum_a z_a
        tail([z*_a, w]) - 2/3 [w, f]."""
        g, pbw = self.algebra, self.pbw
        out = pbw.inject(w)
        self._tail(out, -ONE, pbw.unit(), w)
        for z, zst in zip(self.nb["z"], self.nb["zstar"]):
            self._tail(out, THIRD, pbw.inject(z), g.bracket(zst, w))
        wf = g.bracket(w, {self.grading.f: ONE})
        axpy(out, -(THIRD + THIRD), pbw.inject(wf))
        return self.project(out)

    def _theta(self, x, letters, span):
        """Sum of c * theta_letter(i) over x, on the generators' unit
        coordinates, after checking that x lies in the span of
        ``letters``."""
        if any(i not in letters for i in check_type(x, dict)):
            raise PreconditionError("element is not in the %s span" % span)
        coords = {}
        for i, c in x.items():
            axpy(coords, scalar(c), self.theta_letter(i)._coords)
        return self.evaluate_coordinates(coords)

    def theta_letter(self, i):
        """The lift of one basis letter: its generator's element."""
        self.generators  # fills the letter map with the list
        lift = self._theta_cache.get(i) if type(i) is int else None
        if lift is None:
            raise PreconditionError("letter %r carries no lift" % (i,))
        return lift

    def dual_cartan(self, values):
        """The h^e vector representing a functional through the form."""
        wd = self.weight_data
        return {h: scalar(c) for h, c in zip(wd.letters, wd.dual(values))
                if c}

    def _quadratic_pairs(self):
        """(a, b, coeff): the g(0)# quadratic part, sum of coeff * a b, of
        C and of Theta_Cas (``closed_form_table``).  The h^e letters pair
        through the inverse of their Gram matrix
        (``WeightData.casimir_pairs``); x x* and x* x come with +1, y y*
        with +1 and y* y with -1."""
        gr = self.grading
        out = list(self.weight_data.casimir_pairs)
        out += [(x, xs, ONE) for x, xs in zip(gr.xs, gr.xstars)]
        out += [(xs, x, ONE) for x, xs in zip(gr.xs, gr.xstars)]
        out += [(y, ys, ONE) for y, ys in zip(gr.ys, gr.ystars)]
        out += [(ys, y, -ONE) for y, ys in zip(gr.ys, gr.ystars)]
        return out

    def _casimir_lift(self):
        """The coset of C; leading coset 2e.

        The constant term is pinned by the degree-1 pair expansion: with
        the dual-pair normalization used here, centrality alone leaves the
        constant free, so it is fixed to make the expansion hold exactly
        (the shift against the naive normal-ordered sum is (s-r)^2/16).
        """
        gr, g, pbw = self.grading, self.algebra, self.pbw
        h = pbw.inject({gr.hth: ONE})
        out = {(): scalar(Fraction((gr.s - gr.r) ** 2, 16))}
        acc(out, (gr.e,), ONE + ONE)
        axpy(out, HALF, pbw.mul(h, h))
        axpy(out, -scalar(Fraction(2 + gr.s - gr.r, 2)), h)
        for a, b, c in self._quadratic_pairs():
            axpy(out, c, pbw.mul({(a,): ONE}, {(b,): ONE}))
        evec = {gr.e: ONE}
        for idx, (z, zst) in enumerate(zip(self.nb["z"], self.nb["zstar"])):
            sign = ONE if idx < gr.s else -ONE
            ez = g.bracket(evec, zst)
            if ez:
                axpy(out, sign + sign, pbw.mul(pbw.inject(ez), pbw.inject(z)))
        return self.project(out)

    @property
    def generators(self):
        """Ordered generator list; the module-basis order used everywhere,
        and the one place where a lift is built and certified: a lettered
        one by its tail formula, also kept in ``_theta_cache``, and C."""
        if self._gens is not None:
            return self._gens
        gr, g, sub = self.grading, self.algebra, self.sub
        out = []

        def put(*runs):
            for letters in runs:
                for i in letters:
                    lift = (self._lift_zero if i in self.ge0_letters
                            else self._lift_one)
                    elem = self._theta_cache[i] = self.certify(
                        lift({i: ONE}), sub["nprime"])
                    out.append(Generator(g.labels[i], i, self.weights[i],
                                         g.parity[i], elem))

        put(gr.xs, gr.ys, gr.fs, gr.gs)
        if gr.parity_type == "odd":
            mid = self.certify({(gr.vmid,): ONE}, sub["nzero"])
            out.append(Generator("F", gr.vmid, self.weights[gr.vmid], 1, mid))
        put(gr.hes)
        cas = self.certify(self._casimir_lift(), sub["nprime"])
        out.append(Generator("C", None, 4, 0, cas))
        put([] if gr.gmid is None else [gr.gmid], gr.fstars, gr.gstars,
            gr.xstars, gr.ystars)
        self._name_pos = {gen.name: k for k, gen in enumerate(out)}
        self._lead_pos = {gr.e if gen.letter is None else gen.letter: k
                          for k, gen in enumerate(out)}
        for k, gen in enumerate(out):
            gen.element._coords = {
                tuple(int(i == k) for i in range(len(out))): ONE}
        self._gens = out
        return out

    def generator_index(self, name):
        self.generators  # builds the position maps with the list
        k = self._name_pos.get(name) if isinstance(name, str) else None
        if k is None:
            raise PreconditionError("no generator named %r" % (name,))
        return k

    # -- structural constants ----------------------------------------------

    @property
    def c0(self):
        if self._c0 is None:
            self._compute_c0()
        return self._c0

    def _compute_c0(self):
        g, gr = self.algebra, self.grading
        fvec = {gr.f: ONE}
        shift = scalar(Fraction(3 * (gr.s - gr.r) + 4, 12))
        twelfth = scalar(Fraction(1, 12))
        seen = []
        for w1 in self.g1_letters:
            for w2 in self.g1_letters:
                t = g.pair(g.bracket({w1: ONE}, {w2: ONE}), fvec)
                if not t:
                    continue
                total = ZERO
                for za, zsa in zip(self.nb["z"], self.nb["zstar"]):
                    first = g.bracket({w1: ONE}, za)
                    if not first:
                        continue
                    right_seed = g.bracket(zsa, {w2: ONE})
                    if not right_seed:
                        continue
                    for zb, zsb in zip(self.nb["z"], self.nb["zstar"]):
                        left = g.bracket(first, zb)
                        if not left:
                            continue
                        right = g.bracket(zsb, right_seed)
                        if right:
                            total = total + gr.chi(g.bracket(left, right))
                seen.append(twelfth * total / t - shift)
        if not seen:
            raise PreconditionError("no degree-1 pair with nonzero "
                                    "symplectic pairing")
        for other in seen[1:]:
            if other != seen[0]:
                raise ConsistencyError(
                    "normalization constant differs between degree-1 pairs: "
                    "%s vs %s" % (seen[0].render(), other.render()))
        self._c0 = seen[0]

    def epsilon(self):
        if self.grading.parity_type != "odd":
            raise PreconditionError("shift constant only exists in type odd")
        wd = self.weight_data
        val = self.c0 + scalar(Fraction(1, 8))
        val = val + scalar(2 * wd.pair(wd.rho_e0_bar, wd.delta_bar))
        val = val + scalar(3 * wd.pair(wd.delta_bar, wd.delta_bar))
        return val

    # -- supercommutator right-hand sides ------------------------------------

    @property
    def closed_form_table(self):
        """The commutator table in closed form, keyed like
        ``commutator_table`` and built from the structure constants of g
        and c0 alone; it never reads the straightened table.

        C's row is zero, and so is F's but for [F, F] = 1.  A degree-0
        generator with a degree-0 or degree-1 one gives Theta of their
        bracket.  Two degree-1 generators w1, w2 give the pair expansion

            t/2 (C - Theta_Cas - c0)
              - 1/2 sum_k Theta(#[w1, z_k]) Theta(#[z*_k, w2])
              + (-1)^{|w1||w2|}/2 sum_k Theta(#[w2, z_k]) Theta(#[z*_k, w1]),

        with t = ([w1, w2], f) and Theta_Cas summed over
        ``_quadratic_pairs``.  The products Theta_a Theta_b of degree-0
        letters are straightened in the workspace's one presented U(g, e),
        built here over this table before its pair entries are filled: it
        reads each row on first use, and these products read only rows of
        two degree-0 generators, which are filled first.  Theta_Cas is
        formed in it, and the two are kept in ``_uge`` and ``_cas``.
        """
        if self._closed is not None:
            return self._closed
        g, gr, gens = self.algebra, self.grading, self.generators
        pos, parity = self._lead_pos, g.parity

        def mono(*ks):
            return tuple(map(ks.count, range(len(gens))))

        table, pairs = {}, []
        for ga, gb in combinations_with_replacement(gens, 2):
            key = (ga.name, gb.name)
            if "C" in key or "F" in key:
                table[key] = {mono(): ONE} if key == ("F", "F") else {}
            elif ga.letter in self.g1_letters and gb.letter in self.g1_letters:
                table[key] = {}  # the pair expansion, below
                pairs.append((key, ga.letter, gb.letter))
            else:
                table[key] = {mono(pos[i]): c for i, c in g.bracket(
                    {ga.letter: ONE}, {gb.letter: ONE}).items()}
        self._present(table)
        uge, cas = self._uge, self._cas

        def lift(x):
            """Theta of a degree-0 vector, over one-letter words."""
            return {(pos[i],): c for i, c in x.items()}

        # #[w, z_k] and #[z*_k, w] for every degree-1 letter w, over k
        left = {w: [gr.sharp(g.bracket({w: ONE}, z)) for z in self.nb["z"]]
                for w in self.g1_letters}
        right = {w: [gr.sharp(g.bracket(zst, {w: ONE}))
                     for zst in self.nb["zstar"]] for w in self.g1_letters}

        def pair(w1, w2):
            out = {}
            t = g.pair(g.bracket({w1: ONE}, {w2: ONE}), {gr.f: ONE})
            if t:
                half_t = HALF * t
                acc(out, (self.generator_index("C"),), half_t)
                axpy(out, -half_t, cas)
                acc(out, (), -half_t * self.c0)
            half_sign = -HALF if parity[w1] and parity[w2] else HALF
            for l1, r2, l2, r1 in zip(left[w1], right[w2], left[w2],
                                      right[w1]):
                axpy(out, -HALF, uge.mul(lift(l1), lift(r2)))
                axpy(out, half_sign, uge.mul(lift(l2), lift(r1)))
            return uge.exponents(out)

        for key, w1, w2 in pairs:
            table[key] = pair(w1, w2)
        self._closed = table
        return table

    # -- straightening ---------------------------------------------------

    def monomial(self, expo):
        """Ordered product of generator powers for an exponent tuple."""
        cached = self._mono_cache.get(expo)
        if cached is not None:
            return cached
        if not any(expo):
            elem = self.pbw.unit()
        else:
            last = max(k for k, n in enumerate(expo) if n)
            head = list(expo)
            head[last] -= 1
            elem = self.mul_raw(self.monomial(tuple(head)),
                                self.generators[last].element.value)
        self._mono_cache[expo] = elem
        return elem

    def pbw_coordinates(self, value):
        """Exponent-tuple coordinates of a coset over ordered monomials.

        Theta_a leads with its letter a, F with v_mid and C with 2e; a word
        is leading-only when its letters are g^e letters or v_mid, and its
        key is (number of e, -number of v_mid).  A commutator drops the
        Kazhdan weight by 2, so the top part of an ordered monomial is the
        signed, sorted product of its factors' top parts.  Every tail word
        of a lettered generator leaves g^e (the generator-shapes identity),
        so a leading-only top tail word holds v_mid, and C's top tails hold
        no e.  Keys add, so the product of the leading letters is the
        unique max-key leading-only top word, with coefficient +-2^m, and
        the max-key leading-only top word of a coset names the next
        monomial to subtract.  Only real monomials are subtracted, so the
        result is exact; a word that no monomial leads, or one met twice,
        raises ``ConsistencyError``.
        """
        gr, gens, pos = self.grading, self.generators, self._lead_pos
        coords = {}
        peeled = set()
        work = dict(value)
        while work:
            d = self.kazhdan_degree(work)
            lead = [w for w in work if self.word_weight(w) == d
                    and all(i in pos for i in w)]
            if not lead:
                raise ConsistencyError(
                    "straightening failed at filtration degree %d" % d)
            word = max(lead, key=lambda w: (w.count(gr.e),
                                            -w.count(gr.vmid)))
            expo = [0] * len(gens)
            for i in word:
                expo[pos[i]] += 1
            expo = tuple(expo)
            mono = self.monomial(expo)
            if word in peeled or word not in mono:
                raise ConsistencyError(
                    "straightening cannot peel %s off at filtration degree "
                    "%d" % (render_monomial(self, expo), d))
            peeled.add(word)
            c = work[word] / mono[word]
            coords[expo] = c
            axpy(work, -c, mono)
        return coords

    def evaluate_coordinates(self, coords):
        """The element with coordinates ``coords``, which it keeps."""
        x = WElement(self, None)
        x._coords = coords
        return x

    def _straightened_table(self):
        """Every pairwise supercommutator of generators, straightened from
        the lifts in U(g)."""
        return {(ga.name, gb.name): self.pbw_coordinates(
                    self.comm_raw(ga.element.value, gb.element.value))
                for ga, gb in combinations_with_replacement(
                    self.generators, 2)}

    def _reach(self, closed):
        """``superalgebra._reach`` over the lettered generators but F,
        from the seeds among the degree-0 ones, by the linear closed
        entries of weight sum below 6."""
        gens, lw = self.generators, self.grading.letter_weights
        todo = [k for k, gen in enumerate(gens)
                if gen.letter is not None and gen.name != "F"]

        def bracket(x, r):
            if gens[x].weight + gens[r].weight < 6:
                vec = _entry(gens, closed, x, r)
                if all(sum(e) == 1 for e in vec):
                    return {e.index(1): c for e, c in vec.items()}

        return _reach(todo, _seeds({k: lw[gens[k].letter] for k in todo
                                    if gens[k].weight == 2}), bracket)

    @property
    def commutator_table(self):
        """Coordinates of every pairwise supercommutator of generators.

        Certified from ``closed_form_table``, E(p, q) the closed entry
        of [p, q].  ``superalgebra._reach`` reaches every lettered
        generator y but F from seeds X, the degree-0 generators whose
        restricted weights are its ``_seeds``, through the entries
        E(x, r) that are linear and not of two degree-1 generators:
        Theta_y = sum mu E(x, r) + sum nu Theta_s over x, s in X and r
        reached before y.  The pairs with a seed, and (C, C), (C, F),
        (F, F), are formed in U(g) by ``comm_raw`` and must equal E
        evaluated on the ordered monomials, whose coordinates are unique.
        Every other pair (y, b), y reached first, must satisfy super Jacobi,

            Q = sum mu ([x, E(r, b)] - (-1)^{|x||r|} [r, E(x, b)])
                + sum nu E(s, b) == E(y, b),

        in ``_uge``, the presented algebra of E that ``closed_form_table``
        built, where each E(p, b) of Q is its row [p, b].  Each [x, w] of
        Q is built by the super-Leibniz rule over w, reading the rows
        (x, v) of the bracketing letter x and rows met in straightening,
        of a smaller weight sum.  So Q reads
        pairs of a seed, pairs (r, k) with r reached before y and weight
        sum at most that of (y, b), and rows of a smaller weight sum, and
        induction on (Kazhdan weight sum, reaching position of the earlier
        member) proves every E(y, b).  Q is compared with the closed entry
        as it stands, not with a row the algebra read before: a row read
        in the pair expansion and changed since must not pass.  The table
        holds owned copies of the closed entries.  Any failed check falls
        back to ``_straightened_table``, so a damaged closed form gives the
        same table, and the same report, as before; ``_uge`` and Theta_Cas
        are then rebuilt once over that table, so no damaged row stays in
        the kept algebra.
        """
        if self._table is None:
            self._table = self._certified_table()
            if self._table is None:
                self._table = self._straightened_table()
                self._present(self._table)
        return self._table

    @property
    def uge(self):
        """The presented U(g, e), on the generators in order: the one
        ``PBWAlgebra.presented`` of this workspace.  It is handed out only
        after ``commutator_table`` has certified the closed form it reads,
        or rebuilt it over the straightened table."""
        self.commutator_table
        return self._uge

    def _present(self, table):
        """Keep the presented U(g, e) over ``table`` in ``_uge`` and
        Theta_Cas, summed over ``_quadratic_pairs`` in it, in ``_cas``."""
        gens, pos = self.generators, self._lead_pos
        self._uge = PBWAlgebra.presented([gen.name for gen in gens],
                                         [gen.parity for gen in gens], table)
        self._cas = self._uge.from_words(
            ((pos[a], pos[b]), c) for a, b, c in self._quadratic_pairs())

    def _certified_table(self):
        """The table proved equal to the closed form, or None."""
        gens, closed = self.generators, self.closed_form_table
        seeds, order, recipes = self._reach(closed)
        rank = {k: t for t, k in enumerate(order)}
        uge = self._uge
        table = {}
        for p, q in combinations_with_replacement(range(len(gens)), 2):
            key = (gens[p].name, gens[q].name)
            table[key] = dict(closed[key])
            y, b = sorted((p, q), key=lambda k: rank.get(k, len(gens)))
            if y not in recipes or b in seeds:
                if self.comm_raw(gens[p].element.value,
                                 gens[q].element.value) != \
                        self.evaluate_coordinates(closed[key]).value:
                    return None
                continue
            # a closed entry E(z, b) is read as the row ad(z, b) of ``uge``
            got, word = {}, {(b,): ONE}
            for (x, r), c in recipes[y].items():
                xb = uge.ad(x, word)
                if r is None:
                    axpy(got, c, xb)
                    continue
                axpy(got, c, uge.ad(x, uge.ad(r, word)))
                axpy(got, c if gens[x].parity and gens[r].parity else -c,
                     uge.ad(r, xb))
            # the closed entry as it stands, not a row ``uge`` read before
            if uge.exponents(got) != _entry(gens, closed, y, b):
                return None
        return table

    # -- the relation suite ----------------------------------------------

    def _shape_report(self, gen):
        """Leading-monomial shape of one generator lift, which the peel
        of ``pbw_coordinates`` relies on."""
        value = dict(gen.element.value)
        if gen.letter is not None:
            lead = value.pop((gen.letter,), ZERO)
            if lead != ONE:
                return "leading coefficient %s" % lead.render()
        else:
            lead = value.pop((self.grading.e,), ZERO)
            if lead != ONE + ONE:
                return "leading coefficient %s" % lead.render()
        for w, c in value.items():
            kd = self.word_weight(w)
            if kd > gen.weight:
                return "tail word above the leading degree"
            if kd == gen.weight and len(w) < 2:
                return "linear tail word at the leading degree"
            # normal-ordering constants are fine; longer pure-centralizer
            # words would collide with other monomials of the basis
            if gen.letter is not None and w and all(i in self._centralizer
                                                    for i in w):
                return "tail word inside the centralizer span"
        return None

    def verify_relations(self):
        """The relation report: each identity group with its cases and
        failures.  It reads ``commutator_table`` first, so every group
        that brackets in ``uge``, casimir-vs-quadratic with its Theta_Cas,
        reads a certified algebra."""
        gr, g = self.grading, self.algebra
        gens, lead = self.generators, self._lead_pos
        table, closed = self.commutator_table, self.closed_form_table
        identities = []

        def describe(residual):
            if not isinstance(residual, dict):
                return str(residual)
            if all(isinstance(k, tuple) for k in residual):
                return render_element(g.labels, residual)
            return " + ".join("(%s)*%s" % (c.render(), g.labels[i])
                              for i, c in sorted(residual.items()))

        def run(ident, cases):
            cases = list(cases)
            identities.append({"id": ident, "cases": len(cases), "failures": [
                {"case": label, "residual": describe(residual)}
                for label, residual in cases if residual]})

        def diff(a, b):
            """The table entry of [gens[a], gens[b]] minus its closed form."""
            entry, want = _entry(gens, table, a, b), _entry(gens, closed, a, b)
            if entry == want:
                return {}
            out = dict(entry)
            axpy(out, -ONE, want)
            return out

        def brackets(ident, pairs):
            """[Theta_a, Theta_b] against its closed form per letter pair."""
            run(ident, (("[%s,%s]" % (g.labels[a], g.labels[b]),
                         self.evaluate_coordinates(
                             diff(lead[a], lead[b])).value)
                        for a, b in pairs))

        run("generator-invariance",
            ((gen.name, None) for gen in gens))
        brackets("degree0-brackets",
                 combinations_with_replacement(self.ge0_letters, 2))
        brackets("degree0-degree1-brackets",
                 product(self.ge0_letters, self.g1_letters))
        brackets("degree1-pair-expansion",
                 combinations_with_replacement(self.g1_letters, 2))

        pos_c = self.generator_index("C")
        run("casimir-central",
            (("[C,%s]" % gen.name,
              self.evaluate_coordinates(diff(pos_c, k)).value)
             for k, gen in enumerate(gens) if k != pos_c))

        uge, cas = self.uge, self._cas
        run("casimir-vs-quadratic",
            (("[Cas,%s]" % g.labels[a],
              self.evaluate_coordinates(uge.exponents(
                  uge.commutator(cas, {(lead[a],): ONE}))).value)
             for a in self.ge0_letters))

        if gr.parity_type == "odd":
            pos_f = self.generator_index("F")
            others = [k for k in range(len(gens)) if k not in (pos_f, pos_c)]
            run("midline-relations",
                (("[F,%s]%s" % (gens[k].name, "-1" if k == pos_f else ""),
                  self.evaluate_coordinates(diff(pos_f, k)).value)
                 for k in others + [pos_c, pos_f]))

            gmid = {gr.gmid: ONE}
            run("midline-lie-identities",
                [("[[v,e],[v,e]]+e",
                  _vec_sub(g.bracket(gmid, gmid), {gr.e: -ONE})),
                 ("[[v,e],v]+h/2",
                  _vec_sub(g.bracket(gmid, {gr.vmid: ONE}),
                           {gr.hth: -HALF}))])

            # Theta(g_mid) is odd, so its square is half its self-bracket
            raiser = self.theta_letter(gr.gmid).value
            square = self.mul_raw(raiser, raiser)
            axpy(square, -HALF, self.evaluate_coordinates(
                _entry(gens, closed, lead[gr.gmid], lead[gr.gmid])).value)
            run("raiser-square-expansion", [("square", square)])

        cases = []
        for x, xs in [*zip(gr.xs, gr.xstars), *zip(gr.ys, gr.ystars)]:
            brk = g.bracket({xs: ONE}, {x: ONE})
            bad = {i: c for i, c in brk.items() if i not in gr.hes}
            cases.append((g.labels[x], bad or _vec_sub(
                brk, self.dual_cartan(gr.letter_weights[xs]))))
        run("degree0-ladder-cartan", cases)

        if gr.parity_type == "odd":
            cases = []
            for k, gen in enumerate(gens):
                if k != pos_c:
                    coords = diff(min(k, pos_f), max(k, pos_f))
                    cases.append(("[%s,F]" % gen.name,
                                  coords and _render_coords(self, coords)))
            run("table-midline-column", cases)

        cases = []
        lettered = [k for k, gen in enumerate(gens)
                    if gen.letter is not None and gen.name != "F"]
        for a, b in combinations_with_replacement(lettered, 2):
            ga, gb = gens[a], gens[b]
            if g.pair(g.bracket({ga.letter: ONE}, {gb.letter: ONE}),
                      {gr.f: ONE}):
                continue
            # only the leading filtration layer is pinned down; the
            # exact identities above cover everything of lower weight
            top = ga.weight + gb.weight - 2
            window = {}
            for expo, c in diff(a, b).items():
                wt = sum(n * gens[k].weight for k, n in enumerate(expo))
                if wt > top or (wt == top and sum(expo) < 2):
                    window[expo] = c
            cases.append(("[%s,%s]" % (ga.name, gb.name),
                          window and _render_coords(self, window)))
        run("table-linear-parts", cases)

        run("generator-shapes",
            ((gen.name, self._shape_report(gen)) for gen in gens))

        return {
            "algebra": g.display,
            "parity_type": gr.parity_type,
            "suite": RELATION_SUITE,
            "generators": [gen.name for gen in gens],
            "c0": self.c0.render(),
            "epsilon": self.epsilon().render()
            if gr.parity_type == "odd" else None,
            "identities": identities,
            "ok": all(not ident["failures"] for ident in identities),
        }


def workspace(grading):
    """The grading's one workspace, built on first use and kept on the
    grading; the two reference each other and are freed together."""
    check_type(grading, MinimalGrading)
    if grading._workspace is None:
        grading._workspace = WAlgebra(grading)
    return grading._workspace


def theta_v(grading, v):
    """Tail-corrected lift of a degree-0 centralizer element."""
    wal = workspace(grading)
    return wal._theta(v, wal.ge0_letters, "degree-0 centralizer")


def theta_w(grading, w):
    """Tail-corrected lift of a degree-1 element."""
    wal = workspace(grading)
    return wal._theta(w, wal.g1_letters, "degree-1")


def casimir_C(grading):
    """The distinguished central element C of the generator list."""
    wal = workspace(grading)
    return wal.generators[wal.generator_index("C")].element


def theta_F(grading):
    """The midline generator F of an odd grading."""
    wal = workspace(grading)
    if grading.parity_type != "odd":
        raise PreconditionError("no midline generator in type even")
    return wal.generators[wal.generator_index("F")].element


def _workspace_of(x):
    """The workspace of a W-algebra element; anything else is rejected."""
    return check_type(x, WElement).wal


def _presented(op, a, b):
    """``op`` of ``wal.uge`` on the coordinates of two elements."""
    if _workspace_of(a) is not _workspace_of(b):
        raise PreconditionError("elements live over different gradings")
    uge = a.wal.uge
    words = [from_exponents(x._coordinates()) for x in (a, b)]
    return a.wal.evaluate_coordinates(uge.exponents(op(uge, *words)))


def w_multiply(a, b):
    return _presented(PBWAlgebra.mul, a, b)


def w_commutator(a, b):
    return _presented(PBWAlgebra.commutator, a, b)


def compute_c0(grading):
    return workspace(grading).c0


def compute_epsilon(grading):
    return workspace(grading).epsilon()


def pbw_coordinates(x):
    """A fresh dict of the coordinates of ``x`` over the ordered
    generator monomials."""
    _workspace_of(x)
    return dict(x._coordinates())


def _checked_coords(coords, parities):
    """The nonzero coefficients of ``coords`` as Scalars, after checking
    that each key holds one non-negative int exponent per generator of
    the given parities, at most 1 on an odd one."""
    for expo in check_type(coords, dict):
        if not (type(expo) is tuple and len(expo) == len(parities)
                and all(type(n) is int and n >= 0 for n in expo)
                and all(n <= 1 for n, p in zip(expo, parities) if p)):
            raise PreconditionError(
                "exponent tuple %r does not hold one non-negative int per "
                "generator (%d), at most 1 on an odd one"
                % (expo, len(parities)))
    coords = {e: scalar(c) for e, c in coords.items()}
    return {e: c for e, c in coords.items() if c}


def evaluate_coordinates(grading, coords):
    """The coset with the given coordinates over the ordered generator
    monomials; each key holds one non-negative int exponent per
    generator, at most 1 on an odd one."""
    wal = workspace(grading)
    return wal.evaluate_coordinates(_checked_coords(
        coords, [gen.parity for gen in wal.generators]))


def verify_relations(grading):
    return workspace(grading).verify_relations()
