"""The small subquotient attached to the centralizer of the level torus.

The letters commuting with every diagonal element h_1..h_{k-1} span a
subalgebra g_0 (the torus plus one small rank-one piece); quotienting
its enveloping algebra by the character ideal at the lowest root vector
and passing to invariants leaves an algebra on very few generators:
the torus letters, one Casimir-like element and, when the odd lowering
block has a midline, an odd pair.  ``build_cartan_w`` re-derives that
presentation from scratch inside the quotient and refuses to hand out
an algebra whose cross-checks disagree with the tabulated relations.

The second half of the module is the weight-zero projection: invariant
cosets decompose along restricted weights, every ordered monomial that
touches a letter with nonzero weight is dropped, and the survivors are
rewritten in the abstract presentation through the images of the
surviving slots, which are built once per presentation and carry the
closing shift that makes the projection an algebra homomorphism.  Each
presentation also owns ``_pi_images``, the image of every weight-zero
monomial ``project_pi`` has met, keyed by its exponent tuple over the
W-generators; only monomials of elements already found to have weight
zero are filed, so a later call whose monomials are all filed needs no
weight pass.
"""

from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations_with_replacement

from .envelope import PBWAlgebra, from_exponents, render_element
from .errors import ConsistencyError, PreconditionError, check_type
from .scalar import HALF, ONE, ZERO, acc, axpy, scalar
from .superalgebra import LinearSolver, _indecomposable, _rational_tuple
from .wgen import _checked_coords, _monomial_text, _workspace_of, workspace

class NotHomogeneousError(PreconditionError):
    """Raised for elements mixing several restricted weights.

    ``components`` maps each weight tuple to the part living there.
    """

    def __init__(self, message, components):
        super().__init__(message)
        self.components = components


class CartanWElement:
    """Linear combination of ordered generator monomials.  The constructor
    checks every exponent key and coerces every coefficient to a Scalar;
    the arithmetic builds through ``_wrap``."""

    __slots__ = ("cw", "coords")

    def __init__(self, cw, coords):
        self.cw = cw
        self.coords = _checked_coords(coords, cw.parities)

    def is_zero(self):
        return not self.coords

    def __add__(self, other):
        out = dict(self.coords)
        axpy(out, ONE, self.cw.coerce(other).coords)
        return _wrap(self.cw, out)

    def __sub__(self, other):
        return self + -self.cw.coerce(other)

    def __neg__(self):
        return self.scale(-ONE)

    def scale(self, c):
        c = scalar(c)
        return _wrap(self.cw, {e: c * v for e, v in self.coords.items()}
                     if c else {})

    def __mul__(self, other):
        return self.cw._apply(self.cw.pbw.mul, self, other)

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return self.cw.coerce(other) - self

    def __rmul__(self, other):
        return self.scale(other)

    def bracket(self, other):
        """Supercommutator, extended bilinearly over the parity parts."""
        return self.cw._apply(self.cw.pbw.commutator, self, other)

    def coefficient(self, expo):
        """The coefficient of one ordered monomial, its exponents (a tuple
        or list) checked as the constructor checks a key."""
        expo = tuple(check_type(expo, Iterable))
        _checked_coords({expo: ONE}, self.cw.parities)
        return self.coords.get(expo, ZERO)

    def __eq__(self, other):
        return (isinstance(other, CartanWElement) and self.cw is other.cw
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.cw), tuple(sorted(self.coords))))

    def render(self):
        names = [name + "'" for name in self.cw.names]
        parts = ["(%s)*%s" % (c.render(), _monomial_text(names, expo))
                 for expo, c in sorted(self.coords.items(),
                                       key=lambda kv: (sum(kv[0]), kv[0]))]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "CartanWElement(%s)" % self.render()


def _wrap(cw, coords):
    """The element over straightened, zero-free ``coords``, unchecked."""
    x = object.__new__(CartanWElement)
    x.cw, x.coords = cw, coords
    return x


class CartanWAlgebra:
    """Finite presentation of the subquotient, one per grading.

    Generators are ordered as the monomial slots: the odd lowering
    generator first, then the torus, the Casimir, and the odd raising
    generator last.  Type even keeps only torus and Casimir and is
    commutative.  Elements multiply in ``pbw``, the presented algebra of
    the certified relation table.
    """

    def __init__(self, grading, names, parities, relations, images):
        self.grading = grading
        self.parity_type = grading.parity_type
        self.names = names
        self.parities = parities
        self.relations = relations
        self.images = images
        self._idx = {n: k for k, n in enumerate(names)}
        self.pbw = PBWAlgebra.presented(names, parities, relations)
        # memo slot of _survivor_slots, and project_pi's monomial images
        self._survivors = None
        self._pi_images = {}

    # -- element constructors -------------------------------------------

    def zero(self):
        return _wrap(self, {})

    def unit(self):
        return _wrap(self, {(0,) * len(self.names): ONE})

    def gen(self, name):
        k = self._idx.get(name) if isinstance(name, str) else None
        if k is None:
            raise PreconditionError("no generator named %r" % (name,))
        expo = [0] * len(self.names)
        expo[k] = 1
        return _wrap(self, {tuple(expo): ONE})

    def generators(self):
        return [self.gen(n) for n in self.names]

    def coerce(self, x):
        """x as an element of this presentation; a number becomes a
        multiple of the unit."""
        if isinstance(x, CartanWElement):
            if x.cw is not self:
                raise PreconditionError("elements live over different "
                                        "presentations")
            return x
        return self.unit().scale(scalar(x))

    def monomial_parity(self, expo):
        return sum(n for n, p in zip(expo, self.parities) if p) % 2

    # -- arithmetic -------------------------------------------------------

    def _apply(self, op, a, b):
        """``op``, a product of the presented algebra, on two elements."""
        words = [from_exponents(x.coords) for x in (a, self.coerce(b))]
        return _wrap(self, self.pbw.exponents(op(*words)))

    # -- reporting ---------------------------------------------------------

    def as_json_dict(self):
        labels = self.grading.algebra.labels
        rel = {"[%s',%s']" % (a, b): CartanWElement(self, rhs).render()
               for (a, b), rhs in sorted(self.relations.items())}
        return {
            "parity_type": self.parity_type,
            "generators": [
                {"name": n + "'", "parity": p}
                for n, p in zip(self.names, self.parities)],
            "relations": rel,
            "images": {n + "'": render_element(labels, self.images[n])
                       for n in self.names},
        }


def _relation_table(names, parity_type):
    """Tabulated supercommutators; everything not listed is zero."""
    table = {pair: {} for pair in combinations_with_replacement(names, 2)}
    zero_expo = (0,) * len(names)
    if parity_type == "odd":
        c_expo = tuple(int(n == "C") for n in names)
        table[("F", "F")] = {zero_expo: scalar(-2)}
        table[("E", "E")] = {c_expo: ONE, zero_expo: scalar(Fraction(1, 8))}
    return table


def build_cartan_w(grading):
    """Derive the presentation inside the quotient and certify it.

    Built once per grading and kept on its workspace.
    """
    wal = workspace(grading)
    if wal._cartan is not None:
        return wal._cartan
    g, gr, pbw = wal.algebra, grading, wal.pbw
    hnames = [g.labels[i] for i in gr.hes]
    images = {}
    for name, i in zip(hnames, gr.hes):
        images[name] = pbw.inject({i: ONE})
    h_word = pbw.inject({gr.hth: ONE})
    c_val = pbw.inject({gr.e: scalar(2)})
    axpy(c_val, HALF, pbw.mul(h_word, h_word))
    if gr.parity_type == "odd":
        names = ("F",) + tuple(hnames) + ("C", "E")
        parities = (1,) + (0,) * len(hnames) + (0, 1)
        images["F"] = pbw.inject(gr.F)
        e_val = pbw.inject(gr.E)
        axpy(e_val, HALF, pbw.mul(pbw.inject(gr.F), h_word))
        axpy(e_val, -scalar(Fraction(3, 4)), pbw.inject(gr.F))
        images["E"] = wal.project(e_val)
        axpy(c_val, -scalar(Fraction(3, 2)), h_word)
        axpy(c_val, ONE, pbw.mul(pbw.inject(gr.F), pbw.inject(gr.E)))
    else:
        names = tuple(hnames) + ("C",)
        parities = (0,) * len(hnames) + (0,)
        axpy(c_val, -ONE, h_word)
    images["C"] = wal.project(c_val)

    for name in names:
        bad = pbw.is_invariant(images[name], (gr.f,), wal.project)
        if bad is not None:
            raise ConsistencyError(
                "derived %s' is not invariant under the lowest root "
                "vector: %s" % (name, render_element(g.labels, bad[1])))

    table = _relation_table(names, gr.parity_type)
    unit_expo = (0,) * len(names)
    for a, b in combinations_with_replacement(names, 2):
        # the images are only f-invariant: no term of nzero is skipped
        diff = wal.project(pbw.commutator(images[a], images[b]))
        for expo, c in table[(a, b)].items():
            if expo == unit_expo:
                acc(diff, (), -c)
            else:
                axpy(diff, -c, images["C"])
        if diff:
            raise ConsistencyError(
                "derived bracket [%s',%s'] disagrees with the tabulated "
                "relation by %s" % (a, b, render_element(g.labels, diff)))

    wal._cartan = CartanWAlgebra(grading, names, parities, table, images)
    return wal._cartan


def center_basis(cw):
    """Torus generators plus the Casimir, the even slots, certified on the
    relations: a row with an even slot is empty, (h1, h1) too, though
    products never read a damaged diagonal even row."""
    check_type(cw, CartanWAlgebra)
    even = {n for n, p in zip(cw.names, cw.parities) if not p}
    for (a, b), rhs in cw.relations.items():
        if rhs and (a in even or b in even):
            raise ConsistencyError(
                "claimed central element fails to commute: [%s',%s'] = %s"
                % (a, b, CartanWElement(cw, rhs).render()))
    return [cw.gen(n) for n in cw.names if n in even]


class VLambdaModule:
    """Smallest weight module of the presentation.

    Type odd carries an odd square root of -1 and is two-dimensional
    with a fixed Casimir level; type even is a line with a free level.
    """

    __slots__ = ("cw", "weight", "level", "dims", "actions", "type_flag")

    def __init__(self, cw, weight, level, dims, actions, type_flag):
        self.cw = cw
        self.weight = weight
        self.level = level
        self.dims = dims
        self.actions = actions
        self.type_flag = type_flag

    def action(self, name):
        return self.actions[name]

    def __repr__(self):
        lam = ", ".join(v.render() for v in self.weight)
        return "VLambdaModule(weight=(%s), level=%s, type %s)" % (
            lam, self.level.render(), self.type_flag)


def simple_module(cw, lam, c=None):
    """The module with highest weight ``lam`` (and level ``c`` if even)."""
    check_type(cw, CartanWAlgebra)
    hnames = [n for n in cw.names if n not in ("F", "C", "E")]
    lam = tuple(scalar(v) for v in check_type(lam, Iterable))
    if len(lam) != len(hnames):
        raise PreconditionError(
            "weight needs one value per torus generator (%d given, "
            "%d needed)" % (len(lam), len(hnames)))
    if cw.parity_type == "odd":
        if c is not None:
            raise PreconditionError("the Casimir level is forced here; a "
                                    "free level only exists in type even")
        unit = (0,) * len(cw.names)
        # E acts by 0, so [E', E'] = C' + its unit term acts by 0
        level = -cw.relations[("E", "E")].get(unit, ZERO)
        actions = {}
        for name, v in zip(hnames, lam):
            actions[name] = ((v, ZERO), (ZERO, v))
        actions["C"] = ((level, ZERO), (ZERO, level))
        actions["E"] = ((ZERO, ZERO), (ZERO, ZERO))
        actions["F"] = ((ZERO, -ONE), (ONE, ZERO))
        (p, q), (r, t) = actions["F"]
        ff = ((p * p + q * r, p * q + q * t), (r * p + t * r, r * q + t * t))
        # F' F' is half of [F', F'], a multiple of the unit
        half = HALF * cw.relations[("F", "F")].get(unit, ZERO)
        if ff != ((half, ZERO), (ZERO, half)):
            raise ConsistencyError(
                "the odd generator squares to %r, not to half of [F',F'] "
                "= %s" % (ff, half.render()))
        return VLambdaModule(cw, lam, level, (1, 1), actions, "Q")
    if c is None:
        raise PreconditionError("type even needs an explicit Casimir level")
    level = scalar(c)
    actions = {name: ((v,),) for name, v in zip(hnames, lam)}
    actions["C"] = ((level,),)
    return VLambdaModule(cw, lam, level, (1, 0), actions, "M")


def restricted_weight(x):
    """Common weight of the monomials of ``x``; 0 for the zero element.

    Raises :class:`NotHomogeneousError` with the weight decomposition
    when several weights occur.
    """
    wal = _workspace_of(x)
    lw = wal.grading.letter_weights
    # each generator has its letter's weight and C has 0; sum the others
    moving = [(k, lw[gen.letter]) for k, gen in enumerate(wal.generators)
              if gen.letter is not None and any(lw[gen.letter])]
    zero = (Fraction(0),) * len(wal.grading.hes)
    comps = {}
    for expo, c in x._coordinates().items():
        steps = (wt for k, wt in moving for _ in range(expo[k]))
        comps.setdefault(tuple(map(sum, zip(zero, *steps))), {})[expo] = c
    if len(comps) < 2:
        return next(iter(comps), zero)
    split = {wt: wal.evaluate_coordinates(part)
             for wt, part in sorted(comps.items())}
    raise NotHomogeneousError(
        "not homogeneous: %d distinct restricted weights %s"
        % (len(split), sorted(split)), split)


class RestrictedRootData:
    """Nonzero weights of the level torus with the dominance order.

    ``positive`` holds the weights of the raising letters and ``simple``
    the indecomposable ones among them, those that are not the sum of two
    positive weights.  Building certifies that they are simple roots: they
    are linearly independent, and every positive weight has nonnegative
    integer coordinates over them.  lam dominates mu when lam - mu is a
    nonnegative integer combination of positive weights, so exactly when
    one solve of lam - mu over ``simple`` gives nonnegative integer
    coordinates.  The sum of the dual basis is positive on every positive
    weight, so this is a partial order.
    """

    def __init__(self, grading, positive, roots):
        self.grading = grading
        self.positive = positive
        self.roots = roots
        self.simple = _indecomposable(positive)
        self._solver = LinearSolver()
        for k, alpha in enumerate(self.simple):
            if not self._solver.add(k, dict(enumerate(alpha))):
                raise ConsistencyError(
                    "the indecomposable restricted roots are linearly "
                    "dependent: %s" % (self.simple,))
        for alpha in positive:
            if not self._over_simple(alpha):
                raise ConsistencyError(
                    "restricted root %s is not a nonnegative integer "
                    "combination of the simple ones %s" % (alpha, self.simple))

    def _over_simple(self, diff):
        """Whether diff has nonnegative integer coordinates over ``simple``."""
        coords = self._solver.solve(dict(enumerate(diff)))
        if coords is None:
            return False
        return all(x.denominator == 1 and x >= 0
                   for x in (c.as_fraction() for c in coords.values()))

    def dominates(self, lam, mu):
        """True when lam - mu is a nonnegative integer root combination.

        Each weight holds one int or Fraction per h^e letter.
        """
        lam, mu = (_rational_tuple(x, len(self.grading.hes), "weight %r "
                                   "is not one int or Fraction per h^e "
                                   "letter (%d)") for x in (lam, mu))
        return self._over_simple(tuple(a - b for a, b in zip(lam, mu)))


def restricted_roots(grading):
    """Weight data of the torus action on the whole algebra; built once
    per grading and kept on its workspace."""
    wal = workspace(grading)
    if wal._roots is not None:
        return wal._roots
    gr = grading
    raising = (tuple(gr.fstars) + tuple(gr.gstars) + tuple(gr.xstars)
               + tuple(gr.ystars))
    positive = {gr.letter_weights[i] for i in raising
                if any(gr.letter_weights[i])}
    roots = {wt for wt in gr.letter_weights if any(wt)}
    negatives = {tuple(-v for v in wt) for wt in positive}
    if roots != positive | negatives:
        raise ConsistencyError(
            "restricted roots do not split into raising weights and "
            "their negatives: %s" % sorted(roots - positive - negatives))
    wal._roots = RestrictedRootData(grading, tuple(sorted(positive)),
                                    frozenset(roots))
    return wal._roots


def _survivor_slots(cw):
    """(slot, image) pairs from the surviving monomial slots onto the
    presentation, in slot order; built once per presentation and kept on
    it.

    Each image is the raw projection of its slot, read at the generators
    under the closing shift of ``project_pi``: F' and E' over the midline
    coefficients, h' + delta(h) for each h^e letter h, and for the
    Casimir C' plus the h^e Casimir pairs and the h' of
    dual(2 rho_e0 + 4 delta).  Every formula is linear in C', F' and E'
    and quadratic only in the commuting h', so this is the raw image
    with the shift substituted into it.
    """
    if cw._survivors is None:
        wal = workspace(cw.grading)
        gr, wd = wal.grading, wal.weight_data
        labels = wal.algebra.labels
        odd = gr.parity_type == "odd"
        torus = {i: cw.gen(labels[i]) if odd else cw.gen(labels[i]) - d
                 for i, d in zip(gr.hes, wd.delta_bar)}
        cas = cw.gen("C") + wal.epsilon() if odd else cw.gen("C")
        for a, b, c in wd.casimir_pairs:
            cas += (torus[a] * torus[b]).scale(c)
        functional = tuple(2 * r + 4 * d
                           for r, d in zip(wd.rho_e0_bar, wd.delta_bar))
        for letter, c in wal.dual_cartan(functional).items():
            cas += torus[letter].scale(c)
        slots = [(wal.generator_index(labels[i]), torus[i] + d)
                 for i, d in zip(gr.hes, wd.delta_bar)]
        slots.append((wal.generator_index("C"), cas))
        if odd:
            slots.insert(0, (wal.generator_index("F"),
                             cw.gen("F").scale(gr.F[gr.vmid].inv())))
            slots.append((wal.generator_index(labels[gr.gmid]),
                          cw.gen("E").scale(gr.E[gr.gmid].inv())))
        cw._survivors = slots
    return cw._survivors


def project_pi(x):
    """pi: the image of a weight-zero invariant in the abstract
    presentation, an algebra homomorphism.

    A restricted weight is read as its values on the h^e letters
    (``MinimalGrading.letter_weights``), and ``x`` must have weight 0.
    Its monomials touching any slot outside the surviving set vanish;
    the rest are rewritten through the slot images, which carry the
    closing shift: C' to C' + epsilon when r = dim g(-1)_1 is odd, and
    h' to h' - delta when r is even.  Without the shift the projection is
    linear but not multiplicative.  So pi(Theta(h)) is h' + delta(h) when
    r is odd and h' when r is even.

    The image of each monomial is read once: ``cw._pi_images``, owned by
    the presentation, maps an exponent tuple over the W-generators to
    the coordinates of its image, ``{}`` for a dropped monomial.  Only
    monomials of an ``x`` found to have weight 0 are filed, so every key
    has weight 0, and an ``x`` whose monomials are all filed skips the
    weight pass.
    """
    wal = _workspace_of(x)
    cw = build_cartan_w(wal.grading)
    coords, memo = x._coordinates(), cw._pi_images
    missing = coords.keys() - memo.keys()
    if missing:
        wt = restricted_weight(x)
        if any(wt):
            raise PreconditionError(
                "projection only applies at restricted weight zero; this "
                "element has weight %s" % (wt,))
        survivors = _survivor_slots(cw)
        keep = {slot for slot, _ in survivors}
        for expo in missing:
            if any(n and k not in keep for k, n in enumerate(expo)):
                memo[expo] = {}
                continue
            term = cw.unit()
            for slot, image in survivors:
                for _ in range(expo[slot]):
                    term = term * image
            memo[expo] = term.coords
    out = {}
    for expo, c in coords.items():
        axpy(out, c, memo[expo])
    return _wrap(cw, out)
