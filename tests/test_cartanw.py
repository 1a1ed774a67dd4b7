"""Presentation, modules and the weight-zero projection."""

import gc
import itertools
import json
import random
import weakref
from fractions import Fraction

import pytest

from minwsuper import cartanw, wgen
from minwsuper.cartanw import (CartanWElement, NotHomogeneousError,
                               RestrictedRootData, build_cartan_w,
                               center_basis, project_pi, restricted_roots,
                               restricted_weight, simple_module)
from minwsuper.errors import ConsistencyError, PreconditionError
from minwsuper.grading import grade
from minwsuper.scalar import HALF, ONE, ZERO, Scalar, axpy, scalar, sqrt
from minwsuper.superalgebra import build_algebra

from oracles import (cartan_product_reference, project_pi_reference,
                     root_combinations, weight_zero_pool)

ODD_NAMES = ["osp:1|2", "spo:2|3", "spo:4|1"]
EVEN_NAMES = ["sl:2|1", "gl:2|1", "psl:2|2"]


@pytest.fixture(scope="module")
def gradings():
    return {name: grade(build_algebra(name))
            for name in ODD_NAMES + EVEN_NAMES}


def q(n, d=1):
    return scalar(Fraction(n, d))


# -- presentation -------------------------------------------------------


def test_odd_presentation_relations(gradings):
    for name in ODD_NAMES:
        cw = build_cartan_w(gradings[name])
        F, E, C = cw.gen("F"), cw.gen("E"), cw.gen("C")
        assert (F.bracket(F) - cw.unit().scale(q(-2))).is_zero()
        assert (E.bracket(E) - C - cw.unit().scale(q(1, 8))).is_zero()
        assert F.bracket(E).is_zero()
        for h in cw.names[1:-2]:
            assert cw.gen(h).bracket(E).is_zero()
            assert cw.gen(h).bracket(F).is_zero()
            assert cw.gen(h).bracket(C).is_zero()
        assert C.bracket(E).is_zero()
        assert C.bracket(F).is_zero()


def test_even_presentation_commutative(gradings):
    for name in EVEN_NAMES:
        cw = build_cartan_w(gradings[name])
        assert cw.parity_type == "even"
        gens = cw.generators()
        for a in gens:
            for b in gens:
                assert (a * b - b * a).is_zero()
                assert a.bracket(b).is_zero()


def test_build_rejects_a_wrong_tabulated_relation(monkeypatch):
    # negative control: with [F', F'] tabulated as -1, not -2, the derived
    # bracket disagrees with the table; a fresh grading, so no memo
    real = cartanw._relation_table

    def wrong(names, parity_type):
        table = real(names, parity_type)
        table[("F", "F")] = {(0,) * len(names): scalar(-1)}
        return table

    monkeypatch.setattr(cartanw, "_relation_table", wrong)
    with pytest.raises(ConsistencyError, match=r"derived bracket \[F',F'\] "
                       "disagrees with the tabulated relation"):
        build_cartan_w(grade(build_algebra("spo:2|3")))


def test_equal_elements_hash_equal(gradings):
    # h1' as a generator and as the projection of its lift: equal, with
    # equal hashes, so a set keeps one of them
    gr = gradings["sl:2|1"]
    cw = build_cartan_w(gr)
    a = cw.gen("h1")
    b = project_pi(wgen.workspace(gr).theta_letter(gr.hes[0]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_generator_layout(gradings):
    cw = build_cartan_w(gradings["osp:1|2"])
    assert cw.names == ("F", "C", "E")
    assert cw.parities == (1, 0, 1)
    cw = build_cartan_w(gradings["spo:2|3"])
    assert cw.names == ("F", "h1", "C", "E")
    cw = build_cartan_w(gradings["gl:2|1"])
    assert cw.names == ("h1", "h2", "C")
    assert cw.parities == (0, 0, 0)


def test_gen_rejects_unknown_names(gradings):
    cw = build_cartan_w(gradings["spo:2|3"])
    for bad in ("Z", [], ("F",), None):
        with pytest.raises(PreconditionError, match="no generator named"):
            cw.gen(bad)


def test_build_is_cached(gradings):
    gr = gradings["spo:2|3"]
    assert build_cartan_w(gr) is build_cartan_w(gr)


def test_build_refuses_a_non_invariant_image():
    # a damaged E turns C' into a coset the lowest root vector moves
    gr = grade(build_algebra("spo:2|3"))
    gr.E = {gr.e: ONE}
    with pytest.raises(ConsistencyError, match="derived C' is not invariant "
                       "under the lowest root vector: "):
        build_cartan_w(gr)


def test_dropped_grading_is_released():
    # the grading owns its workspace and everything cached on it, so
    # dropping the grading frees the lot
    gr = grade(build_algebra("osp:1|2"))
    wgen.workspace(gr)
    build_cartan_w(gr)
    restricted_roots(gr)
    ref = weakref.ref(gr)
    del gr
    gc.collect()
    assert ref() is None


def test_odd_squares(gradings):
    for name in ODD_NAMES:
        cw = build_cartan_w(gradings[name])
        F, E = cw.gen("F"), cw.gen("E")
        assert (F * F + cw.unit()).is_zero(), name
        want = (cw.gen("C") + cw.unit().scale(q(1, 8))).scale(HALF)
        assert (E * E - want).is_zero(), name
        # anticommutation of the odd pair
        assert (E * F + F * E).is_zero(), name


# -- center -------------------------------------------------------------


def test_center_basis_osp(gradings):
    cw = build_cartan_w(gradings["osp:1|2"])
    basis = center_basis(cw)
    assert [b.render() for b in basis] == ["(1)*C'"]


def test_center_basis_spo23(gradings):
    cw = build_cartan_w(gradings["spo:2|3"])
    basis = center_basis(cw)
    assert len(basis) == 2
    assert basis[0] == cw.gen("h1")
    assert basis[1] == cw.gen("C")


def test_center_excludes_odd_generators(gradings):
    cw = build_cartan_w(gradings["spo:2|3"])
    F, E = cw.gen("F"), cw.gen("E")
    assert not (F * E - E * F).is_zero()
    assert not (E * F - F * E).is_zero()


def test_center_even_is_everything(gradings):
    cw = build_cartan_w(gradings["gl:2|1"])
    assert len(center_basis(cw)) == 3


def test_center_basis_reads_the_relations(gradings):
    # the even slots, each commuting with every generator; a unit term on
    # a row with an even slot, off the diagonal or on it, is refused
    for name, gr in gradings.items():
        cw = build_cartan_w(gr)
        basis = center_basis(cw)
        assert basis == [cw.gen(n) for n, p in zip(cw.names, cw.parities)
                         if not p], name
        for z in basis:
            for x in cw.generators():
                assert (z * x - x * z).is_zero(), name
    cw = build_cartan_w(gradings["spo:2|3"])
    unit = (0,) * len(cw.names)
    for pair in [("h1", "C"), ("F", "h1"), ("h1", "h1")]:
        table = dict(cw.relations)
        table[pair] = {unit: ONE}
        damaged = cartanw.CartanWAlgebra(cw.grading, cw.names, cw.parities,
                                         table, cw.images)
        with pytest.raises(ConsistencyError, match="fails to commute"):
            center_basis(damaged)


def test_central_preimages(gradings):
    # the enveloping-algebra Casimir of the small subalgebra is central
    # there and lands exactly on the derived C' image
    for name, odd in [("osp:1|2", True), ("sl:2|1", False)]:
        gr = gradings[name]
        wal = wgen.workspace(gr)
        cw = build_cartan_w(gr)
        pbw = wal.pbw

        def inj(v):
            return pbw.inject(v)

        h = inj({gr.hth: ONE})
        omega = {}
        axpy(omega, q(2), pbw.mul(inj({gr.e: ONE}), inj({gr.f: ONE})))
        axpy(omega, HALF, pbw.mul(h, h))
        if odd:
            axpy(omega, q(-3, 2), h)
            axpy(omega, ONE, pbw.mul(inj(gr.F), inj(gr.E)))
            letters = [gr.e, gr.f, gr.hth, gr.vmid, gr.gmid]
        else:
            axpy(omega, -ONE, h)
            letters = [gr.e, gr.f, gr.hth]
        letters += list(gr.hes)
        for i in letters:
            assert not pbw.commutator(inj({i: ONE}), omega)
        assert wal.project(omega) == cw.images["C"]
        for i in gr.hes:
            assert wal.project(inj({i: ONE})) == \
                cw.images[wal.algebra.labels[i]]


# -- simple modules ------------------------------------------------------


def test_simple_module_odd(gradings):
    cw = build_cartan_w(gradings["spo:2|3"])
    mod = simple_module(cw, [Fraction(5, 2)])
    assert mod.type_flag == "Q"
    assert mod.dims == (1, 1)
    F = mod.action("F")
    sq = tuple(tuple(sum((F[i][k] * F[k][j] for k in range(2)), ZERO)
                     for j in range(2)) for i in range(2))
    assert sq == ((-ONE, ZERO), (ZERO, -ONE))
    assert mod.action("E") == ((ZERO, ZERO), (ZERO, ZERO))
    assert mod.action("C") == ((q(-1, 8), ZERO), (ZERO, q(-1, 8)))
    assert mod.action("h1") == ((q(5, 2), ZERO), (ZERO, q(5, 2)))


def test_simple_module_checks_the_odd_square(gradings):
    # F acts by a square root of -1, which is half the certified [F', F']
    # entry; a presentation with that entry doubled is refused
    cw = build_cartan_w(gradings["spo:2|3"])
    table = dict(cw.relations)
    table[("F", "F")] = {e: c + c for e, c in table[("F", "F")].items()}
    damaged = cartanw.CartanWAlgebra(cw.grading, cw.names, cw.parities,
                                     table, cw.images)
    with pytest.raises(ConsistencyError, match="squares to"):
        simple_module(damaged, [0])


def test_simple_module_even(gradings):
    cw = build_cartan_w(gradings["gl:2|1"])
    mod = simple_module(cw, [1, -2], c=Fraction(7, 3))
    assert mod.type_flag == "M"
    assert mod.dims == (1, 0)
    assert mod.action("C") == ((q(7, 3),),)
    assert mod.action("h1") == ((ONE,),)
    assert mod.action("h2") == ((q(-2),),)


def test_simple_module_inequivalent(gradings):
    cw = build_cartan_w(gradings["spo:2|3"])
    pairs = [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(-1, 2)),
             (Fraction(3), Fraction(-3))]
    for a, b in pairs:
        ma = simple_module(cw, [a])
        mb = simple_module(cw, [b])
        assert ma.action("h1") != mb.action("h1")


def test_simple_module_errors(gradings):
    cw_odd = build_cartan_w(gradings["spo:2|3"])
    cw_even = build_cartan_w(gradings["gl:2|1"])
    with pytest.raises(PreconditionError):
        simple_module(cw_odd, [0], c=1)
    with pytest.raises(PreconditionError):
        simple_module(cw_even, [0, 0])
    with pytest.raises(PreconditionError):
        simple_module(cw_odd, [0, 1])
    # a weight that is not a sequence names its type; a value that is not
    # a number stays a TypeError, as for every coefficient
    for lam in (None, 5):
        with pytest.raises(PreconditionError, match=type(lam).__name__):
            simple_module(cw_odd, lam)
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            simple_module(cw_odd, [bad])
    with pytest.raises(TypeError):
        simple_module(cw_even, [0, 0], c=False)


# -- restricted weights --------------------------------------------------


def test_restricted_weight_of_survivors(gradings):
    gr = gradings["spo:2|3"]
    wal = wgen.workspace(gr)
    assert restricted_weight(wgen.casimir_C(gr)) == (Fraction(0),)
    assert restricted_weight(wgen.theta_F(gr)) == (Fraction(0),)
    assert restricted_weight(wal.theta_letter(gr.gmid)) == (Fraction(0),)


def test_restricted_weight_of_ladder(gradings):
    gr = gradings["spo:2|3"]
    wal = wgen.workspace(gr)
    wt = restricted_weight(wal.theta_letter(gr.xstars[0]))
    assert wt == gr.restrict_weight(gr.root_of_letter(gr.xstars[0]))
    assert any(wt)
    down = restricted_weight(wal.theta_letter(gr.xs[0]))
    assert tuple(-v for v in wt) == down


def test_restricted_weight_mixed_split(gradings):
    gr = gradings["spo:2|3"]
    wal = wgen.workspace(gr)
    mixed = wal.theta_letter(gr.xstars[0])
    th = wal.theta_letter(gr.hes[0])
    value = dict(mixed.value)
    axpy(value, ONE, th.value)
    x = wgen.WElement(wal, value)
    with pytest.raises(NotHomogeneousError) as info:
        restricted_weight(x)
    parts = info.value.components
    assert len(parts) == 2
    rebuilt = {}
    for part in parts.values():
        assert part.kdeg == wal.kazhdan_degree(part.value)
        axpy(rebuilt, ONE, part.value)
    assert rebuilt == x.value


# -- restricted roots and dominance ---------------------------------------


def test_restricted_roots_split(gradings):
    for name in ["spo:2|3", "gl:2|1", "spo:4|1"]:
        rr = restricted_roots(gradings[name])
        negatives = {tuple(-v for v in a) for a in rr.positive}
        assert rr.roots == set(rr.positive) | negatives
        assert not set(rr.positive) & negatives


def test_dominance_order(gradings):
    rr = restricted_roots(gradings["spo:4|1"])
    lam = (Fraction(2),)
    alpha = rr.positive[0]
    up = (lam[0] + alpha[0],)
    assert rr.dominates(lam, lam)
    assert rr.dominates(up, lam)
    assert not rr.dominates(lam, up)
    assert not rr.dominates((lam[0] + Fraction(1, 3),), lam)


def test_dominance_rank_two(gradings):
    rr = restricted_roots(gradings["gl:2|1"])
    lam = (Fraction(1), Fraction(0))
    assert rr.dominates((lam[0] + 2, lam[1] - 2), lam)
    assert not rr.dominates((lam[0] + 1, lam[1] + 1), lam)


@pytest.mark.parametrize("name, theta, top", [
    ("gl:2|1", None, 4), ("spo:4|1", None, 4), ("sl:3|1", None, 3),
    ("psl:3|3", None, 1), ("spo:4|3", (0, 2, 0), 2),
    ("sl:2|4", (-2, 1, 0, 0, 0), 1), ("sl:2|4", (2, -1, 0, 0, 0), 1)])
def test_dominance_matches_root_combinations(name, theta, top):
    # every non-negative integer combination of the positive restricted
    # roots with coefficients up to top, from plain enumeration
    rr = restricted_roots(grade(build_algebra(name), theta))
    rank = len(rr.grading.hes)
    combos = root_combinations(rr.positive, top)
    assert len(combos) > 1
    lam = tuple(Fraction(k + 1, 2) for k in range(rank))
    for combo in combos:
        up = tuple(a + c for a, c in zip(lam, combo))
        assert rr.dominates(up, lam), (name, combo)
        assert rr.dominates(lam, up) == (not any(combo)), (name, combo)


@pytest.mark.xfail(strict=True, raises=ConsistencyError,
                   reason="the indecomposable restricted roots of psl:n|n, "
                   "n >= 4, come out linearly dependent")
def test_restricted_roots_build_on_psl44():
    restricted_roots(grade(build_algebra("psl:4|4")))


@pytest.mark.parametrize("name, positive, reason", [
    # two indecomposable roots on a rank-one torus
    ("spo:4|1", ((2,), (3,)), "dependent"),
    # three indecomposable roots on a rank-two torus
    ("gl:2|1", ((1, 0), (0, 1), (1, 2)), "dependent"),
    # (2,) = (1,) + (1,) and (1,) = (2,) + (-1,), so (-1,) alone is
    # indecomposable and (1,) has coordinate -1 over it
    ("spo:4|1", ((-1,), (1,), (2,)), "not a nonnegative integer")])
def test_restricted_roots_reject_non_simplicial(gradings, name, positive,
                                               reason):
    positive = tuple(tuple(Fraction(c) for c in a) for a in positive)
    roots = frozenset(positive) | {tuple(-c for c in a) for a in positive}
    with pytest.raises(ConsistencyError, match=reason):
        RestrictedRootData(gradings[name], positive, roots)


def test_dominance_rejects_malformed_weights(gradings):
    rr = restricted_roots(gradings["spo:4|1"])
    assert len(rr.grading.hes) == 1
    # too long, too short, a bool, a float, a Scalar, not a sequence
    for lam, mu in (((2, 5), (0,)), ((0,), ()), ((True,), (0,)),
                    ((0,), (0.5,)), ((ONE,), (0,)), (2, (0,))):
        with pytest.raises(PreconditionError):
            rr.dominates(lam, mu)
    assert rr.dominates((2,), (Fraction(1),))


# -- the projection -------------------------------------------------------


def test_projection_torus_image(gradings):
    gr = gradings["spo:2|3"]
    wal = wgen.workspace(gr)
    cw = build_cartan_w(gr)
    th = wal.theta_letter(gr.hes[0])
    img = project_pi(th)
    delta = wal.weight_data.delta_bar[0]
    want = cw.gen("h1") + cw.unit().scale(scalar(delta))
    assert (img - want).is_zero()


def test_projection_raiser_image(gradings):
    gr = gradings["osp:1|2"]
    wal = wgen.workspace(gr)
    cw = build_cartan_w(gr)
    g = wal.algebra
    ve = g.bracket({gr.vmid: ONE}, {gr.e: ONE})
    s2 = sqrt(-2)
    img = project_pi(wgen.theta_w(gr, ve)).scale(s2)
    assert (img - cw.gen("E")).is_zero()


def test_projection_midline_image(gradings):
    gr = gradings["osp:1|2"]
    wal = wgen.workspace(gr)
    cw = build_cartan_w(gr)
    s2 = sqrt(-2)
    img = project_pi(wgen.theta_F(gr)).scale(s2)
    assert (img - cw.gen("F")).is_zero()


def test_projection_critical_bracket(gradings):
    # the square of the raising midline generator projects onto
    # -C'/2 - 1/16, matching the bracket of its image
    gr = gradings["osp:1|2"]
    wal = wgen.workspace(gr)
    cw = build_cartan_w(gr)
    tg = wal.theta_letter(gr.gmid)
    br = wgen.w_commutator(tg, tg)
    img = project_pi(br)
    want = cw.gen("C").scale(q(-1, 2)) - cw.unit().scale(q(1, 16))
    assert (img - want).is_zero()
    half = project_pi(tg)
    assert (half.bracket(half) - img).is_zero()


def test_projection_even_shift_restores_torus(gradings):
    # h' -> h' - delta cancels the delta of every raw torus image
    for name in EVEN_NAMES:
        gr = gradings[name]
        wal = wgen.workspace(gr)
        cw = build_cartan_w(gr)
        for i in gr.hes:
            th = wal.theta_letter(i)
            assert project_pi(th) == cw.gen(wal.algebra.labels[i]), name


def test_projection_odd_shift_moves_casimir(gradings):
    # C' -> C' + epsilon moves the raw Casimir image, C' plus the h^e
    # Casimir pairs plus the h' of dual(2 rho_e0 + 4 delta), by epsilon
    # times the unit; the torus does not move in type odd
    for name in ODD_NAMES:
        gr = gradings[name]
        wal = wgen.workspace(gr)
        cw = build_cartan_w(gr)
        wd, labels = wal.weight_data, wal.algebra.labels
        raw = cw.gen("C")
        for a, b, c in wd.casimir_pairs:
            raw += (cw.gen(labels[a]) * cw.gen(labels[b])).scale(c)
        functional = tuple(2 * r + 4 * d
                           for r, d in zip(wd.rho_e0_bar, wd.delta_bar))
        for letter, c in wal.dual_cartan(functional).items():
            raw += cw.gen(labels[letter]).scale(c)
        cas = wgen.casimir_C(gr)
        assert project_pi(cas) == raw + wal.epsilon(), name


def test_projection_rejects_nonzero_weight(gradings):
    gr = gradings["spo:2|3"]
    wal = wgen.workspace(gr)
    with pytest.raises(PreconditionError):
        project_pi(wal.theta_letter(gr.xstars[0]))


def test_kernel_membership(gradings):
    gr = gradings["spo:2|3"]
    wal = wgen.workspace(gr)
    tx = wal.theta_letter(gr.xs[0])
    txs = wal.theta_letter(gr.xstars[0])
    fwd = wgen.w_multiply(tx, txs)
    rev = wgen.w_multiply(txs, tx)
    assert project_pi(fwd).is_zero()
    assert not project_pi(rev).is_zero()
    # membership matches the monomial criterion
    keep = {k for k, gen in enumerate(wal.generators)
            if gen.letter in (gr.vmid, gr.gmid) or gen.name == "C"
            or gen.letter in gr.hes}
    for elem in (fwd, rev):
        coords = wgen.pbw_coordinates(elem)
        killed = all(any(n and k not in keep for k, n in enumerate(expo))
                     for expo in coords)
        assert killed == project_pi(elem).is_zero()


def test_projection_multiplicative_odd(gradings):
    gr = gradings["spo:2|3"]
    wal = wgen.workspace(gr)
    pool = weight_zero_pool(wal)
    rng = random.Random(23)
    for _ in range(100):
        x, y = rng.choice(pool), rng.choice(pool)
        lhs = project_pi(wgen.w_multiply(x, y))
        rhs = project_pi(x) * project_pi(y)
        assert (lhs - rhs).is_zero()


def test_projection_multiplicative_even(gradings):
    gr = gradings["sl:2|1"]
    wal = wgen.workspace(gr)
    pool = weight_zero_pool(wal)
    rng = random.Random(29)
    for _ in range(30):
        x, y = rng.choice(pool), rng.choice(pool)
        lhs = project_pi(wgen.w_multiply(x, y))
        rhs = project_pi(x) * project_pi(y)
        assert (lhs - rhs).is_zero()


def test_projection_triple_product(gradings):
    gr = gradings["osp:1|2"]
    wal = wgen.workspace(gr)
    tf = wgen.theta_F(gr)
    tg = wal.theta_letter(gr.gmid)
    triple = wgen.w_multiply(wgen.w_multiply(tf, tg), tf)
    lhs = project_pi(triple)
    rhs = project_pi(tf) * project_pi(tg) * project_pi(tf)
    assert (lhs - rhs).is_zero()


def _weight_zero_products(name):
    """The weight-zero pool and every ordered product of two of its
    elements on spo:2|3 and sl:2|1; elsewhere 24 seeded weight-zero
    products of two pool elements or generators."""
    wal = wgen.workspace(grade(build_algebra(name)))
    pool = weight_zero_pool(wal)
    if name in ("spo:2|3", "sl:2|1"):
        return wal, pool + [wgen.w_multiply(x, y) for x in pool for y in pool]
    elems = pool + [gen.element for gen in wal.generators]
    pairs = [(x, y) for x in elems for y in elems
             if not any(a + b for a, b in zip(restricted_weight(x),
                                              restricted_weight(y)))]
    return wal, [wgen.w_multiply(x, y)
                 for x, y in random.Random(name).sample(pairs, 24)]


@pytest.mark.parametrize("name", ["spo:2|3", "sl:2|1", "osp:1|2", "spo:2|5"])
def test_projection_matches_reference(name):
    # each element projected from a cold memo, then again from its own
    # entries; then all of them in turn, so later ones meet a memo that
    # holds some of their monomials, and once more from a full memo
    wal, elems = _weight_zero_products(name)
    cw = build_cartan_w(wal.grading)
    refs = [project_pi_reference(x) for x in elems]
    for x, ref in zip(elems, refs):
        cw._pi_images.clear()
        assert project_pi(x) == ref, name
        assert project_pi(x) == ref, name
    cw._pi_images.clear()
    for _ in range(2):
        assert [project_pi(x) for x in elems] == refs, name
    # only weight-zero monomials are ever filed
    assert cw._pi_images
    for expo in cw._pi_images:
        one = wal.evaluate_coordinates({expo: ONE})
        assert not any(restricted_weight(one)), (name, expo)


def _radicals(values):
    """The radicands k of the sqrt(k) terms, k != 1, among ``values``."""
    return {k for c in values if not c.is_rational() for k in c._v} - {1}


@pytest.mark.parametrize("name,products,root_minus_one",
                         [("spo:2|3", 144, 16), ("spo:4|1", 196, 20)])
def test_root2_grading_report_and_pi(name, products, root_minus_one,
                                     monkeypatch):
    # at theta = -2 eps_1 the adapted brackets carry sqrt(2), not
    # sqrt(-2), and F' = sqrt(-2) v_mid puts sqrt(2), sqrt(-1) and
    # sqrt(-2) side by side into pi's images: the certified report, the
    # closed form and pi hold there too
    g = build_algebra(name)
    theta = tuple(-c for c in grade(g).theta)
    assert theta == (-2, 0)
    wal = wgen.workspace(grade(g, theta))
    calls = []
    real = wgen.WAlgebra._straightened_table
    monkeypatch.setattr(wgen.WAlgebra, "_straightened_table",
                        lambda self: calls.append(self) or real(self))
    assert wal.verify_relations()["ok"], name
    assert calls == [], name
    assert wal.closed_form_table == real(wal), name
    assert _radicals(c for entry in wal.commutator_table.values()
                     for c in entry.values()) == {2}, name
    pool = weight_zero_pool(wal)
    assert len(pool) ** 2 == products, name
    mixed = 0
    for x in pool:
        for y in pool:
            xy = wgen.w_multiply(x, y)
            image = project_pi(xy)
            assert image == project_pi(x) * project_pi(y), name
            assert image == project_pi_reference(xy), name
            mixed += -1 in _radicals(image.coords.values())
    assert mixed == root_minus_one, name


def test_projection_errors_leave_a_warm_memo_alone(gradings):
    gr = gradings["spo:2|3"]
    wal = wgen.workspace(gr)
    cw = build_cartan_w(gr)
    pool = weight_zero_pool(wal)
    for x in pool:
        project_pi(x)
    memo = {expo: dict(image) for expo, image in cw._pi_images.items()}
    raising = wal.theta_letter(gr.xstars[0])
    wt = restricted_weight(raising)
    with pytest.raises(PreconditionError) as err:
        project_pi(raising)
    assert not isinstance(err.value, NotHomogeneousError)
    assert str(err.value) == (
        "projection only applies at restricted weight zero; this element "
        "has weight %s" % (wt,))
    # a filed weight-zero element plus one monomial of nonzero weight
    coords = dict(pool[-1]._coordinates())
    (expo, _), = raising._coordinates().items()
    mixed = wal.evaluate_coordinates({**coords, expo: ONE})
    with pytest.raises(NotHomogeneousError) as split:
        restricted_weight(mixed)
    with pytest.raises(NotHomogeneousError) as err:
        project_pi(mixed)
    assert str(err.value) == str(split.value)
    assert err.value.components == split.value.components
    assert len(err.value.components) == 2
    assert project_pi(wal.evaluate_coordinates({})) == cw.zero()
    assert cw._pi_images == memo


# -- arithmetic details ---------------------------------------------------


def test_element_arithmetic(gradings):
    cw = build_cartan_w(gradings["spo:2|3"])
    h, C = cw.gen("h1"), cw.gen("C")
    x = (h + C.scale(q(2))) * (h - cw.unit())
    assert x.coefficient((0, 2, 0, 0)) == ONE
    assert x.coefficient((0, 1, 1, 0)) == q(2)
    assert x.coefficient((0, 1, 0, 0)) == -ONE
    assert x.coefficient((0, 0, 1, 0)) == q(-2)
    y = 3 * h - h.scale(3)
    assert y.is_zero()


def test_element_reflected_arithmetic(gradings):
    # a number on the left means the same multiple of the unit as on the
    # right: 1 + x, 2 - x and scalar(1) + x, like x + 1 and 2 * x
    cw = build_cartan_w(gradings["spo:2|3"])
    h = cw.gen("h1")
    for one in (1, Fraction(1), ONE):
        assert one + h == h + one == h + cw.unit()
        assert one - h == cw.unit() - h
        assert h - one == h - cw.unit()
    assert 2 - h == cw.unit().scale(2) - h
    assert (q(1, 2) - h) + (h - q(1, 2)) == cw.zero()
    with pytest.raises(TypeError):
        0.5 + h
    with pytest.raises(TypeError):
        0.5 - h


def test_element_rejects_bad_exponents(gradings):
    even = build_cartan_w(gradings["sl:2|1"])
    odd = build_cartan_w(gradings["spo:2|3"])
    assert len(even.names) == 2 and len(odd.names) == 4
    # a slot too many, an odd square, a negative exponent
    for cw, expo in ((even, (0, 0, 1)), (odd, (2, 0, 0, 0)),
                     (odd, (0, -1, 0, 0))):
        with pytest.raises(PreconditionError):
            CartanWElement(cw, {expo: ONE})
    # a bool or a float is not an int exponent
    for expo in ((True, 0), (0, 1.0)):
        with pytest.raises(PreconditionError):
            CartanWElement(even, {expo: ONE})
    assert CartanWElement(even, {(0, 0): ONE}) == even.unit()
    F = odd.gen("F")
    assert CartanWElement(odd, {(1, 0, 0, 0): ONE}) == F
    assert F * F == odd.unit().scale(q(-1))
    # coefficient reads an exponent by the same rule, a list as its tuple
    assert F.coefficient((1, 0, 0, 0)) == F.coefficient([1, 0, 0, 0]) == ONE
    assert F.coefficient([0, 0, 0, 0]) == ZERO
    for expo in ((1,), (1, 0, 0, 0, 0), 5, (2, 0, 0, 0), (0, -1, 0, 0),
                 (True, 0, 0, 0), (0, 1.0, 0, 0)):
        with pytest.raises(PreconditionError):
            F.coefficient(expo)


def test_element_coerces_coefficients(gradings):
    cw = build_cartan_w(gradings["spo:4|1"])
    unit = (0,) * len(cw.names)
    x = CartanWElement(cw, {unit: 2, (0, 1, 0, 0): Fraction(1, 3),
                            (0, 0, 1, 0): 0})
    assert x == cw.unit().scale(2) + cw.gen("h1").scale(q(1, 3))
    assert isinstance(x.coefficient(unit), Scalar)
    assert x.render() == "(2)*1 + (1/3)*h1'"
    assert repr(x) == "CartanWElement((2)*1 + (1/3)*h1')"
    # a float or a bool is refused, as scalar() refuses them
    for bad in (0.5, True, False):
        with pytest.raises(TypeError):
            CartanWElement(cw, {unit: bad})
        with pytest.raises(TypeError):
            x.scale(bad)
        with pytest.raises(TypeError):
            cw.coerce(bad)


def test_workspace_functions_reject_other_elements(gradings):
    # a CartanWElement where a WElement belongs is a typed error, not an
    # AttributeError
    gr = gradings["spo:4|1"]
    wrong = build_cartan_w(gr).gen("C")
    right = wgen.casimir_C(gr)
    calls = [lambda: project_pi(wrong), lambda: restricted_weight(wrong),
             lambda: wgen.pbw_coordinates(wrong),
             lambda: wgen.w_multiply(wrong, right),
             lambda: wgen.w_multiply(right, wrong),
             lambda: wgen.w_commutator(wrong, right),
             lambda: wgen.w_commutator(right, wrong)]
    for call in calls:
        with pytest.raises(PreconditionError):
            call()


def _random_cartan_element(rng, cw):
    """Several ordered monomials, odd slots at most once, with rational
    and irrational coefficients."""
    coords = {}
    for _ in range(rng.randint(2, 4)):
        expo = tuple(rng.randint(0, 1 if p else 2) for p in cw.parities)
        coords[expo] = rng.choice([q(rng.randint(-4, 4), rng.randint(1, 3)),
                                   sqrt(-2) * rng.randint(1, 3)])
    return CartanWElement(cw, coords)


def _by_parity(cw, x):
    return [CartanWElement(cw, {e: c for e, c in x.coords.items()
                                if cw.monomial_parity(e) == p})
            for p in (0, 1)]


def test_bracket_matches_products(gradings):
    # [a, b] = sum over parity components of a_p b_q - (-1)^{pq} b_q a_p
    rng = random.Random(31)
    for name in ["osp:1|2", "spo:2|3", "sl:2|1"]:
        cw = build_cartan_w(gradings[name])
        live = 0
        for _ in range(20):
            a = _random_cartan_element(rng, cw)
            b = _random_cartan_element(rng, cw)
            want = cw.zero()
            for p, ap in enumerate(_by_parity(cw, a)):
                for r, br in enumerate(_by_parity(cw, b)):
                    back = br * ap
                    want = want + ap * br - (back.scale(-1) if p and r
                                             else back)
            got = a.bracket(b)
            assert got == want, name
            live += not got.is_zero()
            assert a - b == a + b.scale(-1), name
        # the even presentation is commutative; the odd ones are not
        assert bool(live) == (cw.parity_type == "odd"), name


@pytest.mark.parametrize("name", ["osp:1|2", "spo:2|3", "sl:2|1", "psl:2|2"])
def test_products_match_sign_and_square_rule(gradings, name):
    # every pair of ordered monomials with exponents up to 2, up to 1 on
    # an odd slot: the product and the bracket through the presented
    # algebra equal those of the sign-and-odd-square rule
    cw = build_cartan_w(gradings[name])
    monos = list(itertools.product(*(range(2 if p else 3)
                                     for p in cw.parities)))
    for ea in monos:
        a = CartanWElement(cw, {ea: ONE})
        for eb in monos:
            b = CartanWElement(cw, {eb: ONE})
            ab = cartan_product_reference(cw, ea, eb)
            assert (a * b).coords == ab, (name, ea, eb)
            odd = cw.monomial_parity(ea) and cw.monomial_parity(eb)
            axpy(ab, ONE if odd else -ONE,
                 cartan_product_reference(cw, eb, ea))
            assert a.bracket(b).coords == ab, (name, ea, eb)


def test_cross_algebra_mixing_rejected(gradings):
    a = build_cartan_w(gradings["spo:2|3"]).gen("C")
    b = build_cartan_w(gradings["osp:1|2"]).gen("C")
    with pytest.raises(PreconditionError):
        a * b
    with pytest.raises(PreconditionError):
        a + b
    with pytest.raises(PreconditionError):
        a - b
    with pytest.raises(PreconditionError):
        a.bracket(b)


def test_json_dump(gradings):
    cw = build_cartan_w(gradings["osp:1|2"])
    doc = cw.as_json_dict()
    assert doc["parity_type"] == "odd"
    assert doc["relations"]["[F',F']"] == "(-2)*1"
    assert doc["relations"]["[E',E']"] == "(1/8)*1 + (1)*C'"
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        build_cartan_w(gradings["osp:1|2"]).as_json_dict(), sort_keys=True)
