"""Straightening, Kazhdan filtration, finite quotient projection."""

import ast
import inspect
import random
from fractions import Fraction
from pathlib import Path

import pytest

from minwsuper import envelope
from minwsuper.cartanw import build_cartan_w
from minwsuper.envelope import PBWAlgebra, render_element
from minwsuper.errors import PreconditionError
from minwsuper.grading import grade
from minwsuper.scalar import HALF, ONE, ZERO, axpy, scalar, sqrt
from minwsuper.superalgebra import build_algebra
from minwsuper.wgen import workspace

from oracles import (commutator_reference, free_normal_form, mul_reference,
                     theta_cas_reference)


def _setup(name):
    mg = grade(build_algebra(name))
    return mg, PBWAlgebra(mg.algebra)


@pytest.fixture(scope="module")
def setups():
    return {name: _setup(name) for name in ["osp:1|2", "spo:2|3", "sl:2|1"]}


def _random_words(rng, dim, count, maxlen=6):
    for _ in range(count):
        n = rng.randint(0, maxlen)
        yield tuple(rng.randrange(dim) for _ in range(n))


def test_unit_and_inject(setups):
    mg, pbw = setups["spo:2|3"]
    one = pbw.unit()
    x = pbw.inject({mg.e: ONE, mg.f: scalar(3)})
    assert pbw.mul(one, x) == x
    assert pbw.mul(x, one) == x
    zero = dict(x)
    axpy(zero, -ONE, x)
    assert zero == {}


def test_inject_rejects_outside_letters(setups):
    mg, pbw = setups["spo:2|3"]
    dim = mg.algebra.dim
    assert pbw.inject({dim - 1: ONE}) == {(dim - 1,): ONE}
    for bad in (dim, -1, "e"):
        with pytest.raises(PreconditionError):
            pbw.inject({mg.e: ONE, bad: ONE})


def test_inject_takes_only_int_letters(setups):
    # True and 1.0 both lie in range(dim), but neither is a letter
    mg, pbw = setups["spo:2|3"]
    for bad in (True, 1.0):
        with pytest.raises(PreconditionError):
            pbw.inject({bad: ONE})


def test_inject_reads_coefficients_through_scalar(setups):
    # an int coefficient is stored as a Scalar, so the element renders; a
    # float or a bool is no coefficient
    mg, pbw = setups["sl:2|1"]
    x = pbw.inject({0: 2})
    assert x == {(0,): scalar(2)} and type(x[(0,)]) is type(ONE)
    assert render_element(mg.algebra.labels, x) == \
        render_element(mg.algebra.labels, {(0,): scalar(2)})
    assert pbw.inject({0: 0}) == {}
    for bad in (2.5, True):
        with pytest.raises(TypeError):
            pbw.inject({0: bad})


def test_from_words_checks_letters_and_coefficients(setups):
    # the same letter and coefficient checks as ``inject``
    mg, pbw = setups["sl:2|1"]
    dim = mg.algebra.dim
    assert pbw.from_words([((0,), 2)]) == pbw.inject({0: 2})
    for bad in (99, dim, -1, "a", True, 1.0):
        with pytest.raises(PreconditionError):
            pbw.from_words([((bad,), 1)])
        with pytest.raises(PreconditionError):
            pbw.from_words([((0, bad), ONE)])
    for bad in (2.5, True):
        with pytest.raises(TypeError):
            pbw.from_words([((0,), bad)])


def test_partner_sets_are_built_on_first_ad():
    # only a letter that ``ad`` was asked about gets its partner set
    mg = grade(build_algebra("spo:2|3"))
    g = mg.algebra
    pbw = PBWAlgebra(g)
    assert pbw._partners == {}
    pbw.ad(mg.e, {(mg.f,): ONE})
    assert pbw._partners == {mg.e: {b for b in range(g.dim)
                                    if g.bracket_basis(mg.e, b)}}


def test_matches_free_rewriter(setups):
    rng = random.Random(11)
    more = {name: _setup(name) for name in ["psl:2|2", "spo:4|1"]}
    for name, (mg, pbw) in [*setups.items(), *more.items()]:
        g = mg.algebra
        bracket = lambda i, j: g.bracket({i: ONE}, {j: ONE})
        parity = lambda i: g.parity[i]
        for word in _random_words(rng, g.dim, 40):
            mine = pbw.from_words([(word, ONE)])
            free = free_normal_form(word, ONE, range(g.dim), bracket, parity)
            assert mine == free, (name, word)


@pytest.mark.parametrize("name", ["spo:2|3", "sl:2|1", "psl:2|2"])
def test_presented_reads_reversed_rows(name):
    # g's own upper-triangle bracket table, letters as generators and
    # one-letter exponent tuples as entries, straightens as U(g) does: a
    # reversed (j, i) row read with the wrong supersign breaks this
    mg, pbw = _setup(name)
    g = mg.algebra
    letters = range(g.dim)
    table = {(i, j): {tuple(int(n == k) for n in letters): c
                      for k, c in g.bracket_basis(i, j).items()}
             for i in letters for j in letters if i <= j}
    presented = PBWAlgebra.presented(list(letters), g.parity, table)
    rng = random.Random(name)
    for _ in range(20):
        word = [rng.randrange(g.dim) for _ in range(rng.randint(2, 5))]
        assert presented.from_words([(word, ONE)]) == \
            pbw.from_words([(word, ONE)]), (name, word)


def test_normal_words_are_sorted(setups):
    rng = random.Random(5)
    mg, pbw = setups["sl:2|1"]
    for word in _random_words(rng, mg.algebra.dim, 30):
        out = pbw.from_words([(word, ONE)])
        for w in out:
            assert all(w[i] <= w[i + 1] for i in range(len(w) - 1))
            for i in range(len(w) - 1):
                if w[i] == w[i + 1]:
                    assert not mg.algebra.parity[w[i]]


def test_associativity(setups):
    rng = random.Random(23)
    mg, pbw = setups["spo:2|3"]
    dim = mg.algebra.dim
    for _ in range(12):
        a = pbw.from_words([(w, ONE) for w in _random_words(rng, dim, 1, 3)])
        b = pbw.from_words([(w, ONE) for w in _random_words(rng, dim, 1, 3)])
        c = pbw.from_words([(w, ONE) for w in _random_words(rng, dim, 1, 3)])
        assert pbw.mul(pbw.mul(a, b), c) == pbw.mul(a, pbw.mul(b, c))


def test_odd_square_rule(setups):
    for name, (mg, pbw) in setups.items():
        for v in mg.vs:
            sq = pbw.from_words([((v, v), ONE)])
            half_br = {}
            axpy(half_br, HALF,
                 pbw.inject(mg.algebra.bracket({v: ONE}, {v: ONE})))
            assert sq == half_br, name


def test_kazhdan_letter_weights(setups):
    mg, pbw = setups["osp:1|2"]
    wal = workspace(mg)
    assert wal.kazhdan_degree({(mg.e,): ONE}) == 4
    assert wal.kazhdan_degree({(mg.hth,): ONE}) == 2
    assert wal.kazhdan_degree({(mg.vmid,): ONE}) == 1
    assert wal.kazhdan_degree({(mg.f,): ONE}) == 0
    assert wal.kazhdan_degree(pbw.unit()) == 0
    assert wal.kazhdan_degree({}) is None


def test_envelope_keeps_only_what_it_multiplies_with():
    # the Kazhdan filtration and the letter labels belong to the workspace:
    # envelope imports only errors and scalar, U(g) is built from g alone
    # and keeps neither g nor weights, and the workspace's Kazhdan degree
    # is the top weight sum of a word
    imports = []
    for node in ast.walk(ast.parse(Path(envelope.__file__).read_text())):
        if isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports.append("." * node.level + (node.module or ""))
    assert sorted(imports) == [".errors", ".scalar"]
    assert list(inspect.signature(PBWAlgebra).parameters) == ["g"]
    mg = grade(build_algebra("spo:2|3"))
    pbw = PBWAlgebra(mg.algebra)
    presented = build_cartan_w(mg).pbw
    for algebra in (pbw, presented):
        assert not hasattr(algebra, "g") and not hasattr(algebra, "weights")
    wal, dim = workspace(mg), mg.algebra.dim
    rng = random.Random(41)
    for _ in range(20):
        a = {}
        for word in _random_words(rng, dim, rng.randint(1, 4)):
            axpy(a, scalar(rng.randint(1, 5)), pbw.from_words([(word, ONE)]))
        want = max((sum(mg.degrees[i] + 2 for i in w) for w in a),
                   default=None)
        assert wal.kazhdan_degree(a) == want, a
    assert wal.kazhdan_degree({}) is None


def test_kazhdan_filtration_multiplicative(setups):
    rng = random.Random(31)
    for name, (mg, pbw) in setups.items():
        dim, kdeg = mg.algebra.dim, workspace(mg).kazhdan_degree
        for _ in range(10):
            wa = next(_random_words(rng, dim, 1, 4))
            wb = next(_random_words(rng, dim, 1, 4))
            a, b = pbw.from_words([(wa, ONE)]), pbw.from_words([(wb, ONE)])
            if not a or not b:
                continue
            da, db = kdeg(a), kdeg(b)
            prod = pbw.mul(a, b)
            if prod:
                assert kdeg(prod) <= da + db, name
            comm = pbw.commutator(a, b)
            if comm:
                # the associated graded algebra is supercommutative
                assert kdeg(comm) < da + db, (name, wa, wb)


def test_finite_quotient_kills_ideal(setups):
    rng = random.Random(47)
    for name, (mg, pbw) in setups.items():
        dim = mg.algebra.dim
        fminus1 = pbw.inject({mg.f: ONE})
        axpy(fminus1, -ONE, pbw.unit())
        for _ in range(15):
            w = next(_random_words(rng, dim, 1, 4))
            a = pbw.from_words([(w, ONE)])
            out = pbw.project_qfin(pbw.mul(a, fminus1), mg.f)
            assert out == {}, (name, w)


def test_finite_quotient_strips_trailing(setups):
    mg, pbw = setups["spo:2|3"]
    w = (mg.hth, mg.vs[0], mg.f, mg.f)
    out = pbw.project_qfin({w: scalar(5)}, mg.f)
    assert out == {(mg.hth, mg.vs[0]): scalar(5)}
    assert pbw.project_qfin(pbw.unit(), mg.f) == pbw.unit()


def test_quadratic_casimir_invariance(setups):
    # ef + fe + h^2/2 commutes with the whole sl2 triple in U(g); the
    # projection ``dict`` only copies
    mg, pbw = setups["osp:1|2"]
    e, h, f = mg.e, mg.hth, mg.f
    omega = pbw.from_words([
        ((e, f), ONE), ((f, e), ONE), ((h, h), HALF)])
    assert pbw.is_invariant(omega, (e, h, f), dict) is None
    # and the odd letter sees it too, via the five-part table
    res = pbw.is_invariant(omega, (mg.vmid,), dict)
    assert res is not None  # sl2 Casimir is not the full Casimir here
    letter, residual = res
    assert letter == mg.vmid and residual
    assert residual == pbw.commutator(pbw.inject({mg.vmid: ONE}), omega)


def test_commutator_matches_bracket(setups):
    rng = random.Random(3)
    for name, (mg, pbw) in setups.items():
        g = mg.algebra
        for _ in range(20):
            i = rng.randrange(g.dim)
            j = rng.randrange(g.dim)
            lhs = pbw.commutator(pbw.inject({i: ONE}), pbw.inject({j: ONE}))
            rhs = pbw.inject(g.bracket({i: ONE}, {j: ONE}))
            assert lhs == rhs, (name, i, j)


def _random_element(rng, pbw, dim):
    """A mixed-parity element with int, Fraction and sqrt(-2) coefficients."""
    kinds = (lambda: scalar(rng.randint(-3, 3)),
             lambda: scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
             lambda: rng.randint(-2, 2) * sqrt(-2))
    pairs = [(w, rng.choice(kinds)())
             for w in _random_words(rng, dim, rng.randint(1, 4), 3)]
    return pbw.from_words(pairs)


def _by_parity(pbw, a):
    return [{w: c for w, c in a.items() if pbw.word_parity(w) == p}
            for p in (0, 1)]


def test_commutator_matches_products(setups):
    # the superbracket, extended bilinearly over the parity components:
    # [a, b] = sum of a_p b_q - (-1)^{pq} b_q a_p
    rng = random.Random(19)
    for name, (mg, pbw) in setups.items():
        dim = mg.algebra.dim
        mixed = 0
        for _ in range(12):
            a = _random_element(rng, pbw, dim)
            b = _random_element(rng, pbw, dim)
            want = {}
            for p, ap in enumerate(_by_parity(pbw, a)):
                for q, bq in enumerate(_by_parity(pbw, b)):
                    axpy(want, ONE, pbw.mul(ap, bq))
                    axpy(want, ONE if p and q else -ONE, pbw.mul(bq, ap))
            assert pbw.commutator(a, b) == want, name
            mixed += pbw.element_parity(a) is None
        assert mixed, name


def _ad_cases():
    """(name, algebra): U(g) of five algebras on a fresh PBWAlgebra each,
    and the workspace's presented U(g, e) of spo:2|3, whose adjoint cache
    the certificate of its table has filled."""
    for name in ["osp:1|2", "sl:2|1", "spo:2|3", "psl:2|2", "psl:3|3"]:
        yield name, _setup(name)[1]
    yield "U(g,e) of spo:2|3", workspace(grade(build_algebra("spo:2|3"))).uge


def test_ad_matches_commutator():
    # [x, a] read from the adjoint cache, whose entries [x, u v] are built
    # from [x, u] and the row [x, v] by the super-Leibniz rule, is the
    # superbracket with the letter, as the word-pair reference sums it from
    # the two products (``commutator`` itself reads ``ad``), for every
    # letter (odd ones, whose [x, x] reduces an odd square, and the last
    # one, f in U(g), among them)
    rng = random.Random(23)
    cancelled = 0
    for name, pbw in _ad_cases():
        dim = len(pbw.parity)
        odd_squares = 0
        for _ in range(2):
            a = _random_element(rng, pbw, dim)
            for x in range(dim):
                b = dict(a)
                long_word = tuple(rng.randrange(dim) for _ in range(5))
                axpy(b, ONE, pbw.from_words([((x,), ONE), (long_word, ONE),
                                             ((x, rng.randrange(dim)), HALF)]))
                want = commutator_reference(pbw, pbw.inject({x: ONE}), b)
                assert pbw.ad(x, b) == want, (name, x)
                odd_squares += pbw.parity[x] and (x,) in b
        assert odd_squares, name
        assert pbw.ad(dim - 1, {}) == {}
        # every cached [x, w], the prefixes the rule met and an empty one
        # included, is the superbracket
        assert len(pbw._ad_cache) > dim, name
        for (x, w), vec in pbw._ad_cache.items():
            assert vec == commutator_reference(pbw, pbw.inject({x: ONE}),
                                               {w: ONE}), (name, x, w)
            cancelled += not vec
    # a bracket that cancels is kept too, not rebuilt
    assert cancelled


KERNEL_NAMES = ["osp:1|2", "sl:2|1", "spo:2|3", "psl:2|2"]


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_commutator_matches_reference_on_lifts(name):
    # the super-Leibniz commutator against the word-pair reference, on
    # every ordered pair of generator lifts, and on Theta_Cas (many words
    # on the left) against every degree-0 lift, in both orders
    wal = workspace(grade(build_algebra(name)))
    pbw = wal.pbw
    lifts = [gen.element.value for gen in wal.generators]
    for a in lifts:
        for b in lifts:
            assert pbw.commutator(a, b) == commutator_reference(pbw, a, b)
    cas = theta_cas_reference(wal)
    for x in wal.ge0_letters:
        lift = wal.theta_letter(x).value
        assert pbw.commutator(cas, lift) == \
            commutator_reference(pbw, cas, lift), x
        assert pbw.commutator(lift, cas) == \
            commutator_reference(pbw, lift, cas), x


def _seeded_element(rng, pbw, terms=5, maxlen=3):
    """The normal form of a few seeded words over the letters of ``pbw``,
    with rational and sqrt(-2) coefficients."""
    letters = len(pbw.parity)
    pairs = []
    for _ in range(terms):
        word = [rng.randrange(letters) for _ in range(rng.randint(0, maxlen))]
        c = scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        pairs.append((word, c * sqrt(-2) if rng.random() < 0.5 else c))
    return pbw.from_words(pairs)


@pytest.mark.parametrize("name", ["sl:2|1", "spo:2|3"])
def test_mul_matches_word_pair_reference(name):
    # mul folds all of a through each word of b on its own; the word-pair
    # sum gives the same dict in U(g), the workspace's presented U(g, e)
    # and the Cartan subquotient.  In U(g), seeded elements are also
    # multiplied, on either side, by every degree-1 lift and by the
    # product of each with the next, whose words share prefixes
    gr = grade(build_algebra(name))
    wal = workspace(gr)
    rng = random.Random(name)
    for pbw in (wal.pbw, wal.uge, build_cartan_w(gr).pbw):
        assert pbw.mul({}, pbw.unit()) == pbw.mul(pbw.unit(), {}) == {}
        for _ in range(8):
            a, b = (_seeded_element(rng, pbw) for _ in range(2))
            assert pbw.mul(a, b) == mul_reference(pbw, a, b), (name, a, b)
    pbw = wal.pbw
    lifts = [wal.theta_letter(w).value for w in wal.g1_letters]
    lifts += [pbw.mul(x, y) for x, y in zip(lifts, lifts[1:] + lifts[:1])]
    assert any(u != v and u[:2] == v[:2] for u in lifts[-1] for v in lifts[-1])
    for lift in lifts:
        a = _seeded_element(rng, pbw)
        assert pbw.mul(a, lift) == mul_reference(pbw, a, lift), name
        assert pbw.mul(lift, a) == mul_reference(pbw, lift, a), name


def test_commutator_matches_reference_on_mixed_elements():
    # seeded elements of mixed parity with several words, the empty word
    # among them, on a fresh algebra each
    rng = random.Random(37)
    for name in KERNEL_NAMES:
        mg = grade(build_algebra(name))
        pbw = PBWAlgebra(mg.algebra)
        dim = mg.algebra.dim
        mixed = 0
        for _ in range(8):
            a = {(): scalar(rng.randint(1, 3))}
            while len(a) < 4:
                axpy(a, ONE, _random_element(rng, pbw, dim))
            assert () in a
            b = _random_element(rng, pbw, dim)
            assert pbw.commutator(a, b) == commutator_reference(pbw, a, b)
            assert pbw.commutator(b, a) == commutator_reference(pbw, b, a)
            mixed += (pbw.element_parity(a) is None
                      and pbw.element_parity(b) is None)
        assert mixed, name


def test_letter_cache_holds_no_appends():
    # a product already in normal order is built on the spot, never cached
    wal = workspace(grade(build_algebra("spo:2|3")))
    wal.commutator_table
    pbw = wal.pbw
    parity = pbw.parity
    assert pbw._cache
    for word, x in pbw._cache:
        assert word, x
        last = word[-1]
        assert last >= x, (word, x)
        assert last != x or parity[x], (word, x)


def test_render_element(setups):
    mg, pbw = setups["osp:1|2"]
    labels = mg.algebra.labels
    assert render_element(labels, {}) == "0"
    out = render_element(labels, {(mg.e,): ONE, (): scalar(2)})
    assert "e" in out and "(2)" in out
