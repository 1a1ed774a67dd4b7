"""Invariant generators, the quadratic constants, straightening."""

import ast
import hashlib
import inspect
import json
import random
from fractions import Fraction

import pytest

import minwsuper
from minwsuper import cartanw, envelope, wgen
from minwsuper.cartanw import build_cartan_w, project_pi, restricted_weight
from minwsuper.envelope import PBWAlgebra, from_exponents, render_element
from minwsuper.errors import ConsistencyError, PreconditionError
from minwsuper.grading import WeightData, grade
from minwsuper.scalar import HALF, ONE, ZERO, acc, axpy, scalar
from minwsuper.superalgebra import (_indecomposable, _seeds, build_algebra,
                                   minimal_root_candidates,
                                   root_decomposition, validate)

from oracles import (assert_exact_recipes, c0_epsilon_law,
                     generic_functional_reference,
                     casimir_vs_quadratic_reference, count_bounded_monomials,
                     lift_reference, monomials_of_weight, overlap_failures,
                     pbw_coordinates_reference, raiser_square_reference,
                     weight_zero_pool)

NAMES = ["osp:1|2", "sl:2|1", "spo:2|3", "spo:4|1", "psl:2|2", "gl:2|1"]

# quadratic-constant values frozen from this build; osp:1|2 is the
# hand-checkable anchor (see test_c0_epsilon_smallest_case)
C0_VALUES = {
    "osp:1|2": Fraction(-1, 16),
    "sl:2|1": Fraction(1, 4),
    "spo:2|3": Fraction(9, 16),
    "spo:4|1": Fraction(-11, 16),
    "sl:3|1": Fraction(-1, 2),
    "spo:6|1": Fraction(-21, 16),
    "psl:2|2": Fraction(1),
    "spo:2|5": Fraction(19, 16),
    "gl:2|1": Fraction(1, 4),
    # regression freezes of the current build, the values perfbench gates
    "spo:4|3": Fraction(-1, 16),
    "sl:3|2": Fraction(1, 4),
    "spo:2|4": Fraction(7, 8),
    "spo:2|6": Fraction(3, 2),
}

EPSILON_VALUES = {
    "osp:1|2": Fraction(1, 16),
    "spo:2|3": Fraction(9, 16),
    "spo:4|1": Fraction(1, 16),
    "spo:6|1": Fraction(9, 16),
    "spo:2|5": Fraction(25, 16),
    # regression freeze of the current build, the value perfbench gates
    "spo:4|3": Fraction(1, 16),
}


@pytest.fixture(scope="module")
def gradings():
    return {name: grade(build_algebra(name)) for name in NAMES}


def test_c0_epsilon_smallest_case(gradings):
    mg = gradings["osp:1|2"]
    assert wgen.compute_c0(mg) == Fraction(-1, 16)
    assert wgen.compute_epsilon(mg) == Fraction(1, 16)


def test_c0_family_regression():
    for name, want in C0_VALUES.items():
        assert wgen.compute_c0(grade(build_algebra(name))) == want


def test_epsilon_family_regression():
    for name, want in EPSILON_VALUES.items():
        assert wgen.compute_epsilon(grade(build_algebra(name))) == want


def test_c0_epsilon_laws_on_every_minimal_root():
    """c0 and epsilon obey ``c0_epsilon_law`` on the grading of every
    minimal root of the frozen rows, spo:2|4's so(4) roots among them,
    whose r and s are those of its sp(2) root.  The laws are fitted on
    the ladder, not derived, so they add checks next to the freezes."""
    gradings = 0
    for name in sorted(C0_VALUES):
        g = build_algebra(name)
        spaces = root_decomposition(g).spaces
        for theta in minimal_root_candidates(g, spaces):
            gr = grade(g, theta)
            c0, epsilon = c0_epsilon_law(name, gr)
            assert wgen.compute_c0(gr) == c0, (name, theta)
            if epsilon is not None:
                assert wgen.compute_epsilon(gr) == epsilon, (name, theta)
            gradings += 1
    assert gradings == 66


def test_int_functional_induces_the_rational_positive_system():
    """``root_decomposition`` runs its generic functional on ints over one
    common denominator.  Its positive system and simple-root order are
    the ones that ``oracles.generic_functional_reference``, the functional
    on Fractions, induces, on every minimal root of the frozen rows, with
    theta = -2 eps_i gradings whose brackets carry sqrt(2) among them."""
    gradings = minus = 0
    for name in sorted(C0_VALUES):
        g = build_algebra(name)
        cands = minimal_root_candidates(g, root_decomposition(g).spaces)
        for theta, (_, degree) in cands.items():
            rd = root_decomposition(g, theta)
            eta = generic_functional_reference(g, rd.roots, theta, degree)
            positive = {r for r in rd.roots
                        if eta[r] > 0 or (eta[r] == 0 and degree[r] > 0)}
            half = tuple(c / 2 for c in theta)
            last = half if half in rd.spaces else theta
            simple = sorted((r for r in _indecomposable(positive)
                             if r != last), key=lambda r: (eta[r], r))
            assert rd.positive == positive, (name, theta)
            assert rd.simple == simple + [last], (name, theta)
            gradings += 1
            if g.family == "spo" and -2 in theta[:g.params[0] // 2]:
                rows = grade(g, theta).algebra._bracket.values()
                minus += any(v._v.__class__ is dict and 2 in v._v
                             for row in rows for v in row.values())
    assert gradings == 66 and minus > 0


def test_c0_same_for_every_source_pair(gradings):
    # several degree-one pairs feed the defining average on spo:2|3;
    # the workspace errors out unless they all agree
    wal = wgen.workspace(gradings["spo:2|3"])
    wal.c0
    g, fvec = wal.algebra, {wal.grading.f: ONE}
    pairs = [(w1, w2) for w1 in wal.g1_letters for w2 in wal.g1_letters
             if g.pair(g.bracket({w1: ONE}, {w2: ONE}), fvec)]
    assert len(pairs) >= 2


def test_epsilon_needs_a_midline(gradings):
    with pytest.raises(PreconditionError):
        wgen.compute_epsilon(gradings["sl:2|1"])


def test_generator_roster(gradings):
    counts = {"osp:1|2": 3, "sl:2|1": 4, "spo:2|3": 8, "spo:4|1": 10,
              "psl:2|2": 8, "gl:2|1": 5}
    for name, want in counts.items():
        wal = wgen.workspace(gradings[name])
        gens = wal.generators
        assert len(gens) == want
        assert [g.name for g in gens].count("C") == 1
        parity = gradings[name].parity_type
        assert (["F" in [g.name for g in gens]] ==
                [parity == "odd"])


def test_kazhdan_degrees(gradings):
    mg = gradings["spo:2|3"]
    wal = wgen.workspace(mg)
    v = wgen.theta_v(mg, {mg.xs[0]: ONE})
    w = wgen.theta_w(mg, {mg.gs[0]: ONE})
    assert v.kdeg == 2 and wal.certify(v.value, wal.sub["nprime"]) == v
    assert w.kdeg == 3
    assert wgen.casimir_C(mg).kdeg == 4
    assert wgen.theta_F(mg).kdeg == 1
    assert wal.generators[wal.generator_index("C")].weight == 4


def test_generator_index_rejects_unknown_names(gradings):
    wal = wgen.workspace(gradings["spo:2|3"])
    for bad in ("Z", [], ("C",), None):
        with pytest.raises(PreconditionError, match="no generator named"):
            wal.generator_index(bad)


def test_kdeg_is_derived_from_the_value(gradings):
    # kdeg, read off the coordinates, is the Kazhdan degree of the value
    # for every constructor: a lift, a W-product and an element evaluated
    # from coordinates
    mg = gradings["spo:2|3"]
    wal = wgen.workspace(mg)
    w = wgen.theta_w(mg, {mg.gs[0]: ONE})
    xy = wgen.w_multiply(w, wgen.casimir_C(mg))
    back = wgen.evaluate_coordinates(mg, wgen.pbw_coordinates(xy))
    for x in (w, xy, back):
        assert x.kdeg == wal.kazhdan_degree(x.value)
    assert (w.kdeg, xy.kdeg, back.kdeg) == (3, 7, 7)


def test_theta_v_rejects_wrong_degree(gradings):
    mg = gradings["osp:1|2"]
    with pytest.raises(PreconditionError):
        wgen.theta_v(mg, {mg.e: ONE})
    with pytest.raises(PreconditionError):
        wgen.theta_w(mg, {mg.hth: ONE})


def test_lifts_and_coordinates_coerce_coefficients(gradings):
    # coefficients are coerced to Scalar, as CartanWElement does: an int
    # or Fraction gives the same element as its Scalar, and a float or a
    # bool is a TypeError, even a float zero or False
    mg = gradings["spo:2|3"]
    x, g = mg.xs[0], mg.gs[0]
    half = scalar(Fraction(1, 2))
    assert wgen.theta_v(mg, {x: Fraction(1, 2)}) == \
        wgen.theta_v(mg, {x: half})
    assert wgen.theta_w(mg, {g: 2}) == wgen.theta_w(mg, {g: ONE + ONE})
    zero = (0,) * len(wgen.workspace(mg).generators)
    assert wgen.evaluate_coordinates(mg, {zero: Fraction(1, 2)}) == \
        wgen.evaluate_coordinates(mg, {zero: half})
    for bad in (0.0, 0.5, True, False):
        with pytest.raises(TypeError):
            wgen.theta_v(mg, {x: bad})
        with pytest.raises(TypeError):
            wgen.theta_w(mg, {g: bad})
        with pytest.raises(TypeError):
            wgen.evaluate_coordinates(mg, {zero: bad})


TYPED_CALLS = {
    "workspace": wgen.workspace,
    "build_cartan_w": cartanw.build_cartan_w,
    "center_basis": cartanw.center_basis,
    "simple_module": lambda x: cartanw.simple_module(x, (0,)),
    "restricted_roots": cartanw.restricted_roots,
    "theta_v": lambda x: wgen.theta_v(x, {}),
    "theta_w": lambda x: wgen.theta_w(x, {}),
    "casimir_C": wgen.casimir_C,
    "theta_F": wgen.theta_F,
    "compute_c0": wgen.compute_c0,
    "compute_epsilon": wgen.compute_epsilon,
    "evaluate_coordinates": lambda x: wgen.evaluate_coordinates(x, {}),
    "verify_relations": wgen.verify_relations,
    "grade": grade,
    "kazhdan_weights": wgen.kazhdan_weights,
    "validate": validate,
}


@pytest.mark.parametrize("name", sorted(TYPED_CALLS))
@pytest.mark.parametrize("arg", [None, "spo:2|3"])
def test_wrong_argument_types_are_typed_errors(name, arg):
    # a descriptor string or None where an algebra, a grading or a Cartan
    # subquotient belongs names the type it got, rather than raising a
    # bare AttributeError
    with pytest.raises(PreconditionError, match=type(arg).__name__):
        TYPED_CALLS[name](arg)


def test_theta_F_needs_a_midline(gradings):
    with pytest.raises(PreconditionError):
        wgen.theta_F(gradings["sl:2|1"])
    # F is certified for the letters of nzero, the action without the
    # midline letter, which it does not commute with
    mg = gradings["osp:1|2"]
    wal, F = wgen.workspace(mg), wgen.theta_F(mg)
    assert wal.certify(F.value, wal.sub["nzero"]) == F
    with pytest.raises(ConsistencyError):
        wal.certify(F.value, wal.sub["nprime"])


def test_each_generator_has_one_entry_point():
    # certify checks the letter set it is handed, with no flavor name to
    # map to one, and each generator is fetched by its module function
    # alone, which keeps its signature and its export
    params = inspect.signature(wgen.WAlgebra.certify).parameters
    assert list(params) == ["self", "value", "letters"]
    for name in ("invariance_letters", "theta_zero", "theta_one", "casimir",
                 "theta_mid"):
        assert not hasattr(wgen.WAlgebra, name), name
    with open(wgen.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)}
    assert not strings & {"refined", "finite"}
    for func, args in ((wgen.theta_v, ["grading", "v"]),
                       (wgen.theta_w, ["grading", "w"]),
                       (wgen.casimir_C, ["grading"]),
                       (wgen.theta_F, ["grading"])):
        assert list(inspect.signature(func).parameters) == args
        assert getattr(minwsuper, func.__name__) is func
        assert func.__name__ in minwsuper.__all__


def test_theta_v_is_linear(gradings):
    # lifts are assembled from letter lifts; on a combination of letters
    # they must agree with the tail formula applied to the whole element,
    # and that direct lift must pass the invariance check on its own
    coeffs = [ONE + ONE, scalar(Fraction(-1, 3)), ONE]
    for name in ["spo:2|3", "sl:2|1"]:
        mg = gradings[name]
        wal = wgen.workspace(mg)
        for letters, lift, direct in (
                (wal.ge0_letters, wgen.theta_v, wal._lift_zero),
                (wal.g1_letters, wgen.theta_w, wal._lift_one)):
            x = dict(zip(letters, coeffs))
            want = wal.certify(direct(x), wal.sub["nprime"])
            got = lift(mg, x)
            assert got.value == want.value
            assert got == want and got.kdeg == want.kdeg
    # sl:2|1 has a single degree-0 letter, spo:2|3 several of each degree
    wal = wgen.workspace(gradings["spo:2|3"])
    assert min(len(wal.ge0_letters), len(wal.g1_letters)) >= 3



def test_shape_report_names_each_damage(gradings):
    # negative controls: a damaged copy of a lift's value, wrapped as a
    # generator, fails the shape check with the message of its damage
    wal = wgen.workspace(gradings["spo:2|3"])
    gens = {gen.name: gen for gen in wal.generators}
    x1, g1, C = gens["x1"], gens["g1"], gens["C"]
    h1 = gens["h1"].letter  # a centralizer letter, of x1's weight 2
    assert wal.word_weight((h1,)) == x1.weight < g1.weight
    assert h1 in wal._centralizer
    cases = ((x1, {(x1.letter,): scalar(2)}, "leading coefficient 2"),
             (C, {(gradings["spo:2|3"].e,): ONE}, "leading coefficient 1"),
             (x1, {(h1, h1): ONE}, "tail word above the leading degree"),
             (x1, {(h1,): ONE}, "linear tail word at the leading degree"),
             (g1, {(h1,): ONE}, "tail word inside the centralizer span"))
    for gen, change, message in cases:
        assert wal._shape_report(gen) is None, gen.name
        value = dict(gen.element.value)
        value.update(change)
        bad = wgen.Generator(gen.name, gen.letter, gen.weight, gen.parity,
                             wgen.WElement(wal, value))
        assert wal._shape_report(bad) == message


@pytest.mark.parametrize("name", ["osp:1|2", "sl:2|1", "spo:2|3", "spo:2|5",
                                  "psl:3|3", "spo:4|3"])
def test_lifts_match_the_written_out_tail(name):
    # every generator lifted by a tail formula, each lettered one but the
    # bare midline coset F, is that formula written out term by term, with
    # the same words in the same order
    wal = wgen.workspace(grade(build_algebra(name)))
    lettered = [gen for gen in wal.generators
                if gen.letter is not None and gen.name != "F"]
    assert len(lettered) == len(wal.ge0_letters) + len(wal.g1_letters)
    for gen in lettered:
        want = lift_reference(wal, {gen.letter: ONE})
        assert gen.element.value == want, (name, gen.name)
        assert list(gen.element.value.items()) == list(want.items()), \
            (name, gen.name)

def test_raiser_lift_small_case(gradings):
    # on osp:1|2 the degree-one generator closes over three words
    mg = gradings["osp:1|2"]
    wal = wgen.workspace(mg)
    got = wgen.theta_w(mg, {mg.gmid: ONE}).value
    pbw = wal.pbw
    want = pbw.inject({mg.gmid: ONE})
    axpy(want, HALF, pbw.mul(pbw.inject({mg.hth: ONE}),
                             pbw.inject({mg.vmid: ONE})))
    axpy(want, -HALF * HALF, pbw.inject({mg.vmid: ONE}))
    assert got == want


def test_raiser_square_fixture(gradings):
    # squared degree-one generator = -1/4 C - 1/64 on osp:1|2
    mg = gradings["osp:1|2"]
    tg = wgen.theta_w(mg, {mg.gmid: ONE})
    sq = wgen.w_multiply(tg, tg)
    coords = wgen.pbw_coordinates(sq)
    wal = wgen.workspace(mg)
    cpos = wal.generator_index("C")
    zero = [0] * len(wal.generators)
    lin = list(zero)
    lin[cpos] = 1
    assert coords == {tuple(lin): scalar(Fraction(-1, 4)),
                      tuple(zero): scalar(Fraction(-1, 64))}


@pytest.mark.parametrize("name", ["osp:1|2", "spo:2|3", "spo:4|1", "spo:2|5",
                                  "spo:4|3", "spo:6|1"])
def test_raiser_square_matches_reference(name):
    # half the closed (g_mid, g_mid) entry, Theta(g_mid) being odd, equals
    # the explicit ladder sum on the odd algebras of the relation suite
    wal = wgen.workspace(grade(build_algebra(name)))
    assert wal.grading.parity_type == "odd"
    gmid = wal.algebra.labels[wal.grading.gmid]
    half = {}
    axpy(half, HALF, wal.evaluate_coordinates(
        wal.closed_form_table[(gmid, gmid)]).value)
    assert half == raiser_square_reference(wal)


def test_casimir_commutes(gradings):
    mg = gradings["spo:2|3"]
    wal = wgen.workspace(mg)
    C = wgen.casimir_C(mg)
    for gen in wal.generators:
        assert wgen.w_commutator(C, gen.element).is_zero(), gen.name


def test_midline_squares_to_one(gradings):
    tf = wgen.theta_F(gradings["osp:1|2"])
    got = wgen.w_commutator(tf, tf)
    assert got.value == {(): ONE}


def test_midline_multiplies_casimir(gradings):
    # F and C multiply like any two W-elements: from either order the
    # product is the ordered monomial F*C, it is nzero-invariant but not
    # nprime-invariant, and [F, C] = 0; only elements over two gradings
    # are refused
    for name in NAMES:
        mg = gradings[name]
        if mg.parity_type != "odd":
            continue
        wal = wgen.workspace(mg)
        F, C = wgen.theta_F(mg), wgen.casimir_C(mg)
        fc = tuple(int(gen.name in ("F", "C")) for gen in wal.generators)
        for x in (wgen.w_multiply(F, C), wgen.w_multiply(C, F)):
            assert wgen.pbw_coordinates(x) == {fc: ONE}, name
            assert wal.certify(x.value, wal.sub["nzero"]) == x
            with pytest.raises(ConsistencyError):
                wal.certify(x.value, wal.sub["nprime"])
        assert wgen.w_commutator(F, C).is_zero(), name
    assert "spo:2|3" in NAMES
    mg = gradings["osp:1|2"]
    with pytest.raises(PreconditionError, match="different gradings"):
        wgen.w_multiply(wgen.theta_F(mg),
                        wgen.casimir_C(gradings["spo:2|3"]))


def test_letters_after_nzero_commute_with_f(gradings):
    # the precondition of comm_raw's skip: degrees do not increase along
    # the letters, f is last and alone in degree -2, nzero lies in degree
    # -1 or -2, so every letter a normal word has after one of nzero
    # commutes with f
    for name in [*NAMES, "spo:2|5", "psl:3|3", "spo:8|1"]:
        mg = gradings.get(name) or grade(build_algebra(name))
        g, deg = mg.algebra, mg.degrees
        assert all(a >= b for a, b in zip(deg, deg[1:])), name
        assert mg.f == g.dim - 1 and deg.count(-2) == 1, name
        nzero = wgen.workspace(mg).sub["nzero"]
        assert all(deg[x] < 0 for x in nzero), name
        assert not any(g.bracket({y: ONE}, {mg.f: ONE})
                       for y in range(min(nzero), g.dim)), name


@pytest.mark.parametrize("name", ["osp:1|2", "sl:2|1", "spo:2|3", "spo:2|5"])
def test_comm_raw_skips_only_vanishing_terms(name):
    # comm_raw leaves out the super-Leibniz terms at letters of nzero; on
    # every pair of generators, F included, and on seeded products and
    # supercommutators of them, it equals the projection of the full
    # commutator, and the skip leaves out some nonzero term of U(g)
    mg = grade(build_algebra(name))
    wal = wgen.workspace(mg)
    gens = [gen.element for gen in wal.generators]
    rng = random.Random(name)
    derived = []
    for _ in range(4):
        a, b = rng.choice(gens), rng.choice(gens)
        derived += [wgen.w_multiply(a, b), wgen.w_commutator(a, b)]
    nzero, skipped = frozenset(wal.sub["nzero"]), 0
    for a in gens + derived:
        for b in gens + derived[:2]:
            full = wal.pbw.commutator(a.value, b.value)
            assert wal.comm_raw(a.value, b.value) == wal.project(full), name
            skipped += wal.pbw.commutator(a.value, b.value,
                                          skip=nzero) != full
    # values are free of f, so nothing is skipped when nzero is f alone
    assert skipped or len(nzero) == 1, name


def test_skip_needs_finite_invariance():
    # negative control: the Cartan subquotient's images are only
    # f-invariant, and skipping nzero against them changes the bracket
    # of some generator lift with some image
    mg = grade(build_algebra("spo:2|3"))
    wal, images = wgen.workspace(mg), build_cartan_w(mg).images
    nzero = frozenset(wal.sub["nzero"])
    lifts = [gen.element.value for gen in wal.generators]
    assert any(wal.project(wal.pbw.commutator(a, b, skip=nzero))
               != wal.project(wal.pbw.commutator(a, b))
               for a in lifts for b in images.values())


def test_multiply_is_associative(gradings):
    mg = gradings["spo:2|3"]
    wal = wgen.workspace(mg)
    rng = random.Random(9)
    gens = wal.generators
    for _ in range(12):
        a, b, c = (gens[rng.randrange(len(gens))].element
                   for _ in range(3))
        left = wgen.w_multiply(wgen.w_multiply(a, b), c)
        right = wgen.w_multiply(a, wgen.w_multiply(b, c))
        assert left.value == right.value


def test_every_generator_triple_associates():
    """The complete overlap check of the diamond lemma: on each row of
    ``C0_VALUES``, every triple k >= j >= i of generators associates in
    ``wal.uge``, and of the Cartan subquotient in its presented algebra."""
    counts = [0, 0]
    for name in sorted(C0_VALUES):
        gr = grade(build_algebra(name))
        wal, cw = wgen.workspace(gr), build_cartan_w(gr)
        for k, (pbw, n) in enumerate([(wal.uge, len(wal.generators)),
                                      (cw.pbw, len(cw.names))]):
            count, bad = overlap_failures(pbw, n)
            assert bad == [], (name, k, bad[:5])
            counts[k] += count
    assert counts == [7886, 233]
    # negative control: a doubled (g_mid, g_mid) entry breaks associativity
    wal = wgen.workspace(grade(build_algebra("spo:2|3")))
    table = dict(wal.commutator_table)
    gmid = table["gmid", "gmid"]
    table["gmid", "gmid"] = {e: 2 * c for e, c in gmid.items()}
    gens = wal.generators
    damaged = PBWAlgebra.presented([gen.name for gen in gens],
                                   [gen.parity for gen in gens], table)
    assert overlap_failures(damaged, len(gens))[1]


@pytest.mark.parametrize("name", ["osp:1|2", "sl:2|1", "spo:2|3", "spo:4|1",
                                  "psl:2|2", "sl:3|1", "spo:2|5"])
def test_presentation_multiplies_like_straightening(name):
    # the workspace's presented algebra is U(g, e) on ordered
    # monomials: a product of two of 1-3 generators has the coordinates
    # that straightening their product in U(g) gives, and products of
    # three associate
    wal = wgen.workspace(grade(build_algebra(name)))
    gens, uge = wal.generators, wal.uge
    rng = random.Random(name)

    def monomial():
        expo = [0] * len(gens)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(gens))
            expo[k] = 1 if gens[k].parity else expo[k] + 1
        return tuple(expo)

    for _ in range(10):
        a, b = monomial(), monomial()
        got = uge.mul(from_exponents({a: ONE}), from_exponents({b: ONE}))
        assert uge.exponents(got) == wal.pbw_coordinates(
            wal.mul_raw(wal.monomial(a), wal.monomial(b))), (name, a, b)
    for _ in range(10):
        x, y, z = (from_exponents({monomial(): ONE}) for _ in range(3))
        assert uge.mul(uge.mul(x, y), z) == uge.mul(x, uge.mul(y, z)), name


def _assert_products_match_ug(wal, x, y):
    """w_multiply and w_commutator of x and y, formed on coordinates in
    ``wal.uge``, have the coordinates that peeling the U(g) product and
    supercommutator of the values gives, and kdeg is the Kazhdan degree
    of each value."""
    xy, comm = wgen.w_multiply(x, y), wgen.w_commutator(x, y)
    assert wgen.pbw_coordinates(xy) == wal.pbw_coordinates(
        wal.mul_raw(x.value, y.value))
    assert wgen.pbw_coordinates(comm) == wal.pbw_coordinates(
        wal.comm_raw(x.value, y.value))
    for z in (x, y, xy, comm):
        assert z.kdeg == wal.kazhdan_degree(z.value)


@pytest.mark.parametrize("name", ["spo:2|3", "sl:2|1"])
def test_pool_products_match_ug(name):
    # every ordered product of the weight-zero pool, the stream workload's
    wal = wgen.workspace(grade(build_algebra(name)))
    pool = weight_zero_pool(wal)
    for x in pool:
        for y in pool:
            _assert_products_match_ug(wal, x, y)


@pytest.mark.parametrize("name", ["osp:1|2", "spo:2|5"])
def test_seeded_products_match_ug(name):
    # up to four seeded pairs of pool elements and generators per Kazhdan
    # degree of their product, up to 10
    wal = wgen.workspace(grade(build_algebra(name)))
    elems = weight_zero_pool(wal) + [gen.element for gen in wal.generators]
    pairs = [(x, y) for x in elems for y in elems]
    random.Random(name).shuffle(pairs)
    seen = {}
    for x, y in pairs:
        d = x.kdeg + y.kdeg
        if d <= 10 and seen.get(d, 0) < 4:
            seen[d] = seen.get(d, 0) + 1
            _assert_products_match_ug(wal, x, y)
    assert max(seen) == (8 if name == "osp:1|2" else 10), seen


def test_straightening_round_trips(gradings):
    rng = random.Random(41)
    for name in ["osp:1|2", "sl:2|1", "spo:2|3"]:
        mg = gradings[name]
        wal = wgen.workspace(mg)
        gens = wal.generators
        for _ in range(25):
            x = wgen.evaluate_coordinates(
                mg, {tuple(0 for _ in gens): scalar(rng.randint(-3, 3))})
            ref = x.value
            for _ in range(rng.randint(1, 4)):
                pick = gens[rng.randrange(len(gens))].element
                x = wgen.w_multiply(x, pick)
                ref = wal.mul_raw(ref, pick.value)
            # the product chain in U(g) peels to the coordinates of the one
            # in U(g, e), and those evaluate back to it
            assert wal.pbw_coordinates(ref) == wgen.pbw_coordinates(x)
            back = wgen.evaluate_coordinates(mg, wgen.pbw_coordinates(x))
            assert back.value == x.value == ref


def test_coordinates_of_unit(gradings):
    mg = gradings["sl:2|1"]
    wal = wgen.workspace(mg)
    zero = tuple(0 for _ in wal.generators)
    unit = wgen.evaluate_coordinates(mg, {zero: ONE})
    assert wgen.pbw_coordinates(unit) == {zero: ONE}
    assert wgen.pbw_coordinates(
        wgen.evaluate_coordinates(mg, {})) == {}


def test_evaluate_coordinates_rejects_bad_exponents():
    mg = grade(build_algebra("sl:2|1"))
    wal = wgen.workspace(mg)
    gens = wal.generators
    assert len(gens) == 4
    odd = next(k for k, gen in enumerate(gens) if gen.parity)
    twice = [0] * len(gens)
    twice[odd] = 2
    cached = dict(wal._mono_cache)
    # too short, too long, negative, a bool, a float, an odd square
    for expo in [(1,), (0, 0, 0, 0, 1), (-1, 0, 0, 0), (True, 0, 0, 0),
                 (1.0, 0, 0, 0), tuple(twice)]:
        with pytest.raises(PreconditionError):
            wgen.evaluate_coordinates(mg, {expo: ONE})
    with pytest.raises(PreconditionError):
        wgen.evaluate_coordinates(mg, {(0, 0, 0, 0): ONE, (1,): ONE})
    assert wal._mono_cache == cached


@pytest.mark.parametrize("coords", [None, 5, [((0, 0, 0, 0), ONE)]])
def test_coordinates_must_be_a_dict(gradings, coords):
    # both entry points name the type they got, rather than raising a
    # bare TypeError from iterating it
    mg = gradings["sl:2|1"]
    with pytest.raises(PreconditionError, match=type(coords).__name__):
        wgen.evaluate_coordinates(mg, coords)
    with pytest.raises(PreconditionError, match=type(coords).__name__):
        cartanw.CartanWElement(build_cartan_w(mg), coords)


@pytest.mark.parametrize("lift", ["theta_v", "theta_w"])
@pytest.mark.parametrize("element", [None, 5, "pairs"])
def test_lift_input_must_be_a_dict(gradings, lift, element):
    # a lift names the type it got, rather than raising a bare TypeError
    # from iterating it or calling a list of pairs outside the span
    mg = gradings["spo:2|3"]
    if element == "pairs":
        element = [(mg.xs[0] if lift == "theta_v" else mg.gs[0], ONE)]
    with pytest.raises(PreconditionError, match=type(element).__name__):
        getattr(wgen, lift)(mg, element)


def test_monomial_counts_match_graded_dimension(gradings):
    for name in ["osp:1|2", "sl:2|1", "spo:2|3"]:
        wal = wgen.workspace(gradings[name])
        gens = wal.generators
        weights = [g.weight for g in gens]
        odd = [g.parity for g in gens]
        for cap in range(0, 9):
            got = sum(len(monomials_of_weight(wal, d))
                      for d in range(cap + 1))
            assert got == count_bounded_monomials(weights, odd, cap)


def test_cached_straightener(gradings):
    # a warm workspace gives the same coordinates as a fresh one, its
    # table straightens again to itself, and an input outside the span
    # still fails
    for name in ["spo:2|3", "sl:2|1"]:
        mg = gradings[name]
        warm = wgen.workspace(mg)
        table = warm.commutator_table
        fresh = wgen.WAlgebra(grade(build_algebra(name)))
        assert fresh.commutator_table == table
        gens = warm.generators
        for a in range(len(gens)):
            for b in range(a, len(gens)):
                comm = warm.comm_raw(gens[a].element.value,
                                     gens[b].element.value)
                assert warm.pbw_coordinates(comm) == \
                    table[(gens[a].name, gens[b].name)]
        # a bare degree -1 letter other than the midline one has weight 1,
        # and no ordered monomial has that word as its top part
        z = next(i for i in mg.us + mg.vs if i != mg.vmid)
        assert warm.word_weight((z,)) == 1
        with pytest.raises(ConsistencyError):
            warm.pbw_coordinates({(z,): ONE})


@pytest.mark.parametrize("name", ["osp:1|2", "sl:2|1", "gl:2|1", "spo:2|3",
                                  "spo:4|1"])
def test_peel_matches_echelon_reference(name):
    # the leading-word peel and the per-degree echelon give the same
    # coordinates on every table entry and every product of pool pairs;
    # the reference keeps its per-degree echelons across the calls
    wal = wgen.WAlgebra(grade(build_algebra(name)))
    gens = wal.generators
    echelons = {}
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            comm = wal.comm_raw(gens[a].element.value, gens[b].element.value)
            assert wal.commutator_table[(gens[a].name, gens[b].name)] == \
                pbw_coordinates_reference(wal, comm, echelons)
    pool = weight_zero_pool(wal)
    for x in pool:
        for y in pool:
            xy = wgen.w_multiply(x, y).value
            assert wal.pbw_coordinates(xy) == \
                pbw_coordinates_reference(wal, xy, echelons), name


def test_peel_rejects_dependent_generators():
    # two generators lifted to the same element Theta_a + Theta_b leave
    # Theta_a outside the span of the ordered monomials: the peel trades
    # a for b and back, and must stop at the repeated word
    wal = wgen.WAlgebra(grade(build_algebra("spo:2|3")))
    gens = wal.generators
    a, b = next((p, q) for p in range(len(gens))
                for q in range(p + 1, len(gens))
                if gens[p].letter in wal.ge0_letters
                and gens[q].letter in wal.ge0_letters
                and (gens[p].weight, gens[p].parity)
                == (gens[q].weight, gens[q].parity))
    theta_a = wal.theta_letter(gens[a].letter)
    both = wgen.theta_v(wal.grading,
                        {gens[a].letter: ONE, gens[b].letter: ONE})
    gens[a].element = gens[b].element = both
    with pytest.raises(ConsistencyError):
        wal.pbw_coordinates(theta_a.value)


def test_high_degree_pool_products():
    # products of Kazhdan degree 8 and more on spo:8|1, where an echelon
    # of every ordered monomial of the degree holds 28,865 monomials at
    # degree 8: the U(g) product peels to their coordinates and pi is
    # multiplicative.  Degree 10 at most keeps it to seconds: the U(g)
    # product alone takes several seconds at degree 12
    mg = grade(build_algebra("spo:8|1"))
    wal = wgen.workspace(mg)
    pool = weight_zero_pool(wal)
    pairs = [(x, y) for x in pool for y in pool if 8 <= x.kdeg + y.kdeg <= 10]
    random.Random(8).shuffle(pairs)
    checked = []
    for x, y in pairs:
        xy = wgen.w_multiply(x, y)
        if xy.kdeg < 8:
            continue
        assert wgen.pbw_coordinates(xy) == wal.pbw_coordinates(
            wal.mul_raw(x.value, y.value))
        assert project_pi(xy) == project_pi(x) * project_pi(y)
        checked.append(xy.kdeg)
        if len(checked) == 6:
            break
    assert len(checked) == 6


def _cache_snapshot(wal, cw):
    """Rendered copies of every cached value that sums read from."""
    pbw, uge = wal.pbw, wal.uge

    def r(value):
        return render_element(wal.algebra.labels, value)

    def words(value):
        return sorted((w, c.render()) for w, c in value.items())

    return {
        "letters": {key: r(v) for key, v in pbw._cache.items()},
        "adjoints": {key: r(v) for key, v in pbw._ad_cache.items()},
        "uge letters": {key: words(v) for key, v in uge._cache.items()},
        "uge adjoints": {key: words(v) for key, v in uge._ad_cache.items()},
        "cas": words(wal._cas),
        "monomials": {key: r(v) for key, v in wal._mono_cache.items()},
        "thetas": {key: r(v.value) for key, v in wal._theta_cache.items()},
        "casimir": r(wgen.casimir_C(wal.grading).value),
        "images": {key: r(v) for key, v in cw.images.items()},
        "survivors": [(slot, image.render()) for slot, image
                      in cartanw._survivor_slots(cw)],
        "pi images": {key: words(v) for key, v in cw._pi_images.items()},
        "letter_weights": wal.grading.letter_weights,
    }


def test_cached_values_stay_read_only():
    # every sum accumulates into a dict it owns, so a second round of the
    # same work finds each cached value exactly as the first round left it
    for name in ["spo:2|3", "sl:2|1"]:
        mg = grade(build_algebra(name))
        wal = wgen.workspace(mg)
        cw = build_cartan_w(mg)
        gens = [gen.element for gen in wal.generators]

        def work():
            assert wgen.verify_relations(mg)["ok"], name
            for a in gens:
                for b in gens:
                    ab = wgen.w_multiply(a, b)
                    back = wgen.evaluate_coordinates(
                        mg, wgen.pbw_coordinates(ab))
                    assert back.value == ab.value, name
                    if not any(restricted_weight(ab)):
                        project_pi(ab)

        work()
        before = _cache_snapshot(wal, cw)
        assert before["pi images"], name
        work()
        # no entry added to any cache, pi's monomial images included
        assert _cache_snapshot(wal, cw) == before, name


def test_second_certify_adds_no_cache_entry(gradings):
    wal = wgen.workspace(gradings["spo:2|3"])
    gens = [gen.element for gen in wal.generators]
    value = wal.mul_raw(gens[-1].value, gens[0].value)
    first = wal.certify(value, wal.sub["nprime"])
    sizes = (len(wal.pbw._cache), len(wal.pbw._ad_cache))
    assert sizes[1]
    second = wal.certify(value, wal.sub["nprime"])
    assert (len(wal.pbw._cache), len(wal.pbw._ad_cache)) == sizes
    assert second == first


def test_certify_reports_the_commutator_residual(gradings):
    # a coset the action does not kill raises with the residual of the
    # superbracket with the first letter that leaves one
    wal = wgen.workspace(gradings["spo:2|3"])
    value = {(wal.grading.e,): ONE}
    letters = wal.sub["nprime"]
    bad = next(b for b in letters if wal.project(
        wal.pbw.commutator(wal.pbw.inject({b: ONE}), value)))
    residual = wal.project(wal.pbw.commutator(wal.pbw.inject({bad: ONE}),
                                              value))
    with pytest.raises(ConsistencyError) as err:
        wal.certify(value, letters)
    assert str(err.value).endswith(
        "ad %s leaves %s" % (wal.algebra.labels[bad],
                             render_element(wal.algebra.labels, residual)))


@pytest.mark.parametrize("name", ["osp:1|2", "sl:2|1", "spo:2|3", "spo:2|5"])
def test_derived_elements_inherit_invariance(name, monkeypatch):
    # generators are certified once each, where they are built, F for the
    # letters of nzero and the others for those of nprime; seeded products
    # and supercommutators of them, coordinates evaluated back and
    # restricted-weight components make no check of their own, yet each is
    # nzero-invariant, and the products and supercommutators of
    # generators other than F are nprime-invariant too
    mg = grade(build_algebra(name))
    wal = wgen.workspace(mg)
    nzero, nprime = wal.sub["nzero"], wal.sub["nprime"]
    letter_sets = []
    real = wgen.WAlgebra.certify

    def spy(self, value, letters):
        letter_sets.append(letters)
        return real(self, value, letters)

    monkeypatch.setattr(wgen.WAlgebra, "certify", spy)
    odd = mg.parity_type == "odd"
    if odd:
        assert nzero != nprime
        F = wgen.theta_F(mg)
        assert wgen.theta_F(mg) is F and letter_sets.count(nzero) == 1
    gens = [gen.element for gen in wal.generators]
    assert sorted(letter_sets) == sorted([nzero] * odd + [nprime] * (
        len(gens) - odd))
    rng = random.Random(name)
    derived = []
    for pool in ([gen.element for gen in wal.generators if gen.name != "F"],
                 gens):
        for _ in range(6):
            a, b = rng.choice(pool), rng.choice(pool)
            derived += [wgen.w_multiply(a, b), wgen.w_commutator(a, b)]
    assert len(letter_sets) == len(gens)
    monkeypatch.undo()
    for x in derived[:12]:
        assert wal.certify(x.value, nprime) == x
    for x in derived:
        assert wal.certify(x.value, nzero) == x
    # coordinates evaluated back, and the restricted-weight components of
    # one ordered monomial of each generator plus a product
    evaluated = [wgen.evaluate_coordinates(mg, wgen.pbw_coordinates(x))
                 for x in derived[::3]]
    coords = wgen.pbw_coordinates(derived[0])
    for k in range(len(gens)):
        acc(coords, tuple(int(i == k) for i in range(len(gens))), ONE)
    mixed = wgen.evaluate_coordinates(mg, coords)
    if len({restricted_weight(x) for x in gens}) > 1:
        with pytest.raises(cartanw.NotHomogeneousError) as err:
            restricted_weight(mixed)
        evaluated += err.value.components.values()
    else:
        assert name == "osp:1|2"
        evaluated.append(mixed)
    for x in evaluated:
        assert wal.certify(x.value, nzero) == x


def test_coordinates_are_straightened_once(gradings, monkeypatch):
    # products and supercommutators are formed on coordinates in wal.uge,
    # and their restricted weights and pi images read those coordinates:
    # none of it multiplies or peels in U(g).  A product's value is
    # evaluated once, on its first read, and an element built from a value
    # is peeled once
    mg = gradings["spo:2|3"]
    assert mg.parity_type == "odd"
    wal = wgen.workspace(mg)
    wal.uge  # certifies the table and presents U(g, e)
    build_cartan_w(mg)
    gens = [gen.element for gen in wal.generators]
    mul_raw = wgen.WAlgebra.mul_raw
    calls = {"mul_raw": [], "pbw_coordinates": []}
    for method, seen in calls.items():
        real = getattr(wgen.WAlgebra, method)
        monkeypatch.setattr(wgen.WAlgebra, method,
                            lambda self, *args, real=real, seen=seen:
                            seen.append(args) or real(self, *args))
    products = [(a, b, wgen.w_multiply(a, b)) for a in gens for b in gens]
    brackets = [wgen.w_commutator(a, b) for a in gens for b in gens]
    zero = [x for x in [p for _, _, p in products] + brackets
            if not any(restricted_weight(x))]
    images = [project_pi(x) for x in zero]
    a, b, x = max((t for t in products if not any(restricted_weight(t[2]))),
                  key=lambda t: len(wgen.pbw_coordinates(t[2])))
    assert len(images) > len(gens)
    assert calls == {"mul_raw": [], "pbw_coordinates": []}
    value = x.value
    assert x.value is value and calls["pbw_coordinates"] == []
    assert value == mul_raw(wal, a.value, b.value)
    # an element built from the value is peeled once, and only once
    calls["mul_raw"].clear()
    y = wgen.WElement(wal, dict(value))
    assert y == x and restricted_weight(y) == restricted_weight(x)
    assert project_pi(y) == project_pi(x)
    # the caller owns the returned dict: changing it changes nothing later
    coords = wgen.pbw_coordinates(y)
    want = dict(coords)
    coords.clear()
    assert wgen.pbw_coordinates(y) == want == wgen.pbw_coordinates(x)
    assert calls["pbw_coordinates"] == [(y.value,)]
    # as_finite, which the benchmark pool still calls, is the element
    # itself, coordinates and all
    assert all(z.as_finite() is z for z in gens + [x, y])


def test_lifts_are_read_from_the_generator_list(monkeypatch):
    # on a fresh workspace the generator list holds every lift: theta_letter,
    # casimir_C and theta_F hand out its elements, and theta_v and theta_w
    # sum its unit coordinates, so neither their products nor the pi images
    # of those multiply or peel in U(g)
    mg = grade(build_algebra("spo:2|3"))
    wal = wgen.workspace(mg)
    calls = {"mul_raw": [], "pbw_coordinates": []}
    for method, seen in calls.items():
        real = getattr(wgen.WAlgebra, method)
        monkeypatch.setattr(wgen.WAlgebra, method,
                            lambda self, *args, real=real, seen=seen:
                            seen.append(args) or real(self, *args))
    gens = wal.generators
    for gen in gens:
        if gen.letter in wal.ge0_letters + wal.g1_letters:
            assert wal.theta_letter(gen.letter) is gen.element, gen.name
    assert wgen.casimir_C(mg) is gens[wal.generator_index("C")].element
    assert wgen.theta_F(mg) is gens[wal.generator_index("F")].element
    assert calls == {"mul_raw": [], "pbw_coordinates": []}
    # the table's certificate checks its seed pairs in U(g)
    wal.uge
    build_cartan_w(mg)
    for seen in calls.values():
        seen.clear()
    x = mg.xs[0]
    unit = tuple(int(k == wal.generator_index(mg.algebra.labels[x]))
                 for k in range(len(gens)))
    assert wgen.pbw_coordinates(wgen.theta_v(mg, {x: 2})) == {unit: ONE + ONE}
    images = []
    for v in wal.ge0_letters:
        for w in wal.g1_letters:
            xy = wgen.w_multiply(wgen.theta_v(mg, {v: ONE}),
                                 wgen.theta_w(mg, {w: ONE}))
            if not xy.is_zero() and not any(restricted_weight(xy)):
                images.append(project_pi(xy))
    assert images
    assert calls == {"mul_raw": [], "pbw_coordinates": []}


def test_theta_letter_takes_only_lifted_letters(gradings):
    # a letter that leads no lift, the midline letter of F among them, an
    # int out of range or anything but an int is a PreconditionError, not
    # a bare IndexError or TypeError
    mg = gradings["spo:2|3"]
    wal = wgen.workspace(mg)
    for bad in (999, -1, mg.e, mg.f, mg.vmid, True, 1.0, "x", None, [0]):
        with pytest.raises(PreconditionError):
            wal.theta_letter(bad)


def test_commutator_table_covers_all_pairs(gradings):
    wal = wgen.workspace(gradings["sl:2|1"])
    table = wal.commutator_table
    n = len(wal.generators)
    assert len(table) == n * (n + 1) // 2


def test_workspace_is_cached(gradings):
    mg = gradings["spo:2|3"]
    assert wgen.workspace(mg) is wgen.workspace(mg)


# the Tier-1 slice of the relation suite
RELATION_SLICE = ["osp:1|2", "sl:2|1", "spo:2|3", "spo:4|1", "psl:2|2",
                  "gl:2|1", "sl:3|1", "spo:2|4", "spo:2|5", "spo:4|3",
                  "spo:6|1", "sl:3|2"]


def test_relation_suite_passes(gradings):
    for name in RELATION_SLICE:
        mg = gradings.get(name) or grade(build_algebra(name))
        rep = wgen.verify_relations(mg)
        assert rep["ok"], [i for i in rep["identities"] if i["failures"]]
        assert rep["suite"] == wgen.RELATION_SUITE
        if name == "spo:2|3":
            # big enough that every identity group has live cases
            assert all(i["cases"] > 0 for i in rep["identities"])
        names = {i["id"] for i in rep["identities"]}
        assert "degree1-pair-expansion" in names
        assert "casimir-central" in names


def test_closed_form_equals_straightened_table(gradings):
    # the presentation in closed form, entry for entry the table
    # straightened from the lifts in U(g), as the same coordinate dicts,
    # and the certified table
    for name in RELATION_SLICE:
        wal = wgen.workspace(gradings.get(name) or grade(build_algebra(name)))
        closed = wal.closed_form_table
        assert wal.closed_form_table is closed
        assert closed == wal._straightened_table(), name
        assert closed == wal.commutator_table, name


def _casimir_group(rep):
    [group] = [i for i in rep["identities"]
               if i["id"] == "casimir-vs-quadratic"]
    return group


def test_theta_cas_commutes_in_ug(gradings):
    # Theta_Cas multiplied from the lifts in U(g) commutes there with
    # every degree-0 lift, and the report, which brackets the closed
    # form's Theta_Cas instead, reads the same group
    for name in RELATION_SLICE:
        wal = wgen.workspace(gradings.get(name) or grade(build_algebra(name)))
        want = casimir_vs_quadratic_reference(wal)
        assert want["failures"] == [], name
        assert _casimir_group(wal.verify_relations()) == want, name


def _damaged_pairs(pairs):
    """Each copy of ``pairs`` with one pair dropped, negated or doubled."""
    for k, (a, b, c) in enumerate(pairs):
        for new in ([], [(a, b, -c)], [(a, b, c + c)]):
            yield pairs[:k] + new + pairs[k + 1:]


@pytest.mark.parametrize("name", ["sl:2|1", "spo:2|3", "psl:2|2", "spo:4|1",
                                  "gl:2|1", "sl:3|1"])
def test_casimir_group_matches_ug_under_damage(name):
    # with the quadratic part of Theta_Cas damaged after the generators
    # (C among them) are built, the group bracketed in the presented
    # algebra equals the one of U(g) commutators, failures and residual
    # strings included; a damage is caught unless g(0)# is abelian
    mg = grade(build_algebra(name))
    base = wgen.WAlgebra(mg)
    abelian = not any(mg.algebra.bracket({a: ONE}, {b: ONE})
                      for a in base.ge0_letters for b in base.ge0_letters)
    caught = 0
    for damaged in _damaged_pairs(base._quadratic_pairs()):
        wal = wgen.WAlgebra(mg)
        wal.generators
        wal._quadratic_pairs = lambda pairs=damaged: list(pairs)
        group = _casimir_group(wal.verify_relations())
        assert group == casimir_vs_quadratic_reference(wal), (name, damaged)
        caught += bool(group["failures"])
    assert abelian != bool(caught), name


def test_closed_form_never_reads_the_table(monkeypatch):
    # built from the structure constants and c0 alone: no table, and no
    # commutator in U(g)
    for name in ["spo:2|3", "sl:2|1"]:
        wal = wgen.WAlgebra(grade(build_algebra(name)))
        wal.generators
        monkeypatch.setattr(wal, "comm_raw", None)
        closed = wal.closed_form_table
        monkeypatch.undo()
        assert wal._table is None, name
        assert closed == wal._straightened_table(), name


@pytest.mark.parametrize("name", ["spo:2|3", "sl:2|1", "spo:2|5",
                                  "psl:3|3"])
def test_certificate_recipes_are_exact(name):
    # each generator the certificate reaches equals its recipe, summed
    # from the closed entries, as the derived Jacobi checks assume
    wal = wgen.WAlgebra(grade(build_algebra(name)))
    gens, closed = wal.generators, wal.closed_form_table
    todo = [k for k, gen in enumerate(gens)
            if gen.letter is not None and gen.name != "F"]
    reach = wal._reach(closed)

    def entry(x, r):
        vec = wgen._entry(gens, closed, x, r)
        assert all(sum(e) == 1 for e in vec), (x, r)
        return {e.index(1): c for e, c in vec.items()}

    lw = wal.grading.letter_weights
    seeds = _seeds({k: lw[gens[k].letter] for k in todo
                    if gens[k].weight == 2})
    assert_exact_recipes(todo, seeds, entry, reach)


@pytest.mark.parametrize("name,theta,seed,reached", [
    ("gl:2|3", None, "h2", ["h3", "h4"]),
    ("sl:3|2", (-1, -1, 1, 0), "h1", ["h2"]),
])
def test_certificate_runs_seed_terms(name, theta, seed, reached, monkeypatch):
    # a recipe term nu Theta_s on a seed s: the certificate reads the
    # seed's own row E(s, b) for it, and the term is needed: with the nu
    # terms dropped from the recipes the certificate fails
    wal = wgen.WAlgebra(grade(build_algebra(name), theta))
    names = [gen.name for gen in wal.generators]
    seeds, _, recipes = wal._reach(wal.closed_form_table)
    nu = {names[y]: [names[x] for (x, r) in recipes[y] if r is None]
          for y in recipes}
    assert names.index(seed) in seeds, name
    assert {y for y, xs in nu.items() if xs} == set(reached), name
    assert all(nu[y] == [seed] for y in reached), name
    table = wal._certified_table()
    assert table is not None and table == wal._straightened_table(), name
    assert wal.verify_relations()["ok"], name
    real = wgen.WAlgebra._reach

    def without_nu(self, closed):
        seeds, order, recipes = real(self, closed)
        return seeds, order, {y: {k: c for k, c in rec.items()
                                  if k[1] is not None}
                              for y, rec in recipes.items()}
    monkeypatch.setattr(wgen.WAlgebra, "_reach", without_nu)
    assert wgen.WAlgebra(grade(build_algebra(name), theta)) \
        ._certified_table() is None, name


@pytest.mark.parametrize("name,pairs", [("spo:2|3", 24), ("spo:2|5", 78),
                                        ("psl:3|3", 165), ("spo:8|1", 234)])
def test_certificate_straightens_few_pairs(name, pairs, monkeypatch):
    # the U(g) pairs, a seed's or among C and F, are the certificate's
    # work; every other pair is derived: frozen from the build that first
    # certified the table from a generating set
    wal = wgen.WAlgebra(grade(build_algebra(name)))
    wal.generators, wal.closed_form_table
    calls = []
    real = wal.comm_raw
    monkeypatch.setattr(wal, "comm_raw",
                        lambda a, b: calls.append(1) or real(a, b))
    table = wal.commutator_table
    n = len(wal.generators)
    assert (len(calls), len(table)) == (pairs, n * (n + 1) // 2)
    assert table == wal.closed_form_table


def test_verify_reads_the_table(gradings, monkeypatch):
    # on a warm workspace no U(g) commutator is formed: casimir-vs-quadratic
    # brackets Theta_Cas in the closed form's presented algebra, and the
    # one U(g) product is the raiser square's left side in type odd; one
    # report warms both tables and the ordered monomials it evaluates,
    # which the certified table does not all build
    for name in ["spo:2|3", "sl:2|1", "spo:4|1", "spo:2|5"]:
        wal = wgen.workspace(gradings.get(name) or grade(build_algebra(name)))
        wal.verify_relations()
        calls = {"comm_raw": 0, "mul_raw": 0}

        def counted(method):
            real = getattr(wal, method)

            def call(a, b):
                calls[method] += 1
                return real(a, b)
            return call

        for method in calls:
            monkeypatch.setattr(wal, method, counted(method))
        rep = wal.verify_relations()
        monkeypatch.undo()
        assert rep["ok"], name
        assert calls == {"comm_raw": 0,
                         "mul_raw": int(wal.grading.parity_type == "odd")}, \
            name


def test_relation_suite_failure_shape():
    # a tampered constant must be reported, not silently absorbed
    mg = grade(build_algebra("osp:1|2"))
    wal = wgen.workspace(mg)
    good = wal.c0
    try:
        wal._c0 = good + 1
        rep = wal.verify_relations()
        assert not rep["ok"]
        bad = {i["id"] for i in rep["identities"] if i["failures"]}
        assert "degree1-pair-expansion" in bad
    finally:
        wal._c0 = good


# Regression freezes, not independent truths: sha256 digests of the whole
# relation report, failures and residual strings included, under three
# kinds of damage: c0 + 1, +1 on the unit term of every table entry, and
# +1 on every single-generator term of every table entry.  The unit
# damage also shows the supersign of a reversed table read.
DAMAGED_REPORT_DIGESTS = {
    ("osp:1|2", "c0"): "a41e811e30753ce8b1b1e08e96e0f0cffe4c5200ce9a7afb609e6fd6616944f6",
    ("osp:1|2", "unit"): "bde8eef133b47f52ec6f25398b5be95c72e4fc54236c3e9bfdf3abfd000935d7",
    ("osp:1|2", "linear"): "debcae41fadb7af6e0aba824dcb3bbd5ca1b8c87ec7e4692cf58e056d6b205f9",
    ("sl:2|1", "c0"): "6f5b5f419d76600bba7ff8360cfe232091511c305c87516a8284befc743fc24d",
    ("sl:2|1", "unit"): "efc8a1b71920bd290937e7f64ad1f1e7f065d124ff5255a785e00959d0b3b51d",
    ("sl:2|1", "linear"): "9e201d7a78e475921c5495e723f5b8c15bfebaba06c9477798b394a1102060df",
    ("gl:2|1", "c0"): "b7c6ca92b2b5ca52e81045285e8f0155d7e8d73d3de2f8136b58c964d03d8cd9",
    ("gl:2|1", "unit"): "0875691bf73223ce1f40f60c313249deaa41cc94b1703ffe9b050b656473bfb4",
    ("gl:2|1", "linear"): "7b16d28d119f636bc43bda150ebec091ed6f8a6fd6d82a086483bb27c89d8f9a",
    ("spo:2|3", "c0"): "4602da5fb717b4b0ab48bc05b9c48379e1c51480b19c2fb6829e22c698f625b5",
    ("spo:2|3", "unit"): "5b882dd2b25e360730e5190f58f83af23bf4e406a7f31475167b01b927847a17",
    ("spo:2|3", "linear"): "5411322280176a9cb29e907e00d8e041d1095595585640ca744cd90187fd7610",
}


@pytest.mark.parametrize("name,damage", sorted(DAMAGED_REPORT_DIGESTS))
def test_damaged_reports_frozen(name, damage):
    wal = wgen.WAlgebra(grade(build_algebra(name)))
    if damage == "c0":
        wal._c0 = wal.c0 + 1
    else:
        unit = (0,) * len(wal.generators)
        for entry in wal.commutator_table.values():
            for expo in ([unit] if damage == "unit"
                         else [e for e in entry if sum(e) == 1]):
                acc(entry, expo, ONE)
    rep = wal.verify_relations()
    assert not rep["ok"]
    text = json.dumps(rep, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        DAMAGED_REPORT_DIGESTS[(name, damage)]


def _damaged_workspaces(name, sample=None):
    """(label, workspace) for c0 + 1 and for +1 on the unit term of each
    closed entry in a seeded sample of ``sample`` of them, or of every one
    when ``sample`` is None, applied after the closed form, and the
    presented U(g, e) over it, are built and before the commutator table
    is."""
    mg = grade(build_algebra(name))
    wal = wgen.WAlgebra(mg)
    wal._c0 = wal.c0 + 1
    yield "c0", wal
    keys = sorted(wal.closed_form_table)
    if sample is not None:
        keys = random.Random(name).sample(keys, min(sample, len(keys)))
    unit = (0,) * len(wal.generators)
    for key in keys:
        wal = wgen.WAlgebra(mg)
        acc(wal.closed_form_table[key], unit, ONE)
        yield key, wal


@pytest.mark.parametrize("name,sample", [("sl:2|1", 10), ("spo:2|3", 8),
                                         ("spo:2|5", 8)])
def test_damaged_closed_form_falls_back(name, sample, monkeypatch):
    # a damaged closed entry or c0 fails a U(g) pair or a derived check,
    # so the table is straightened from every pair, and the report is the
    # one read from that table
    calls = []
    real = wgen.WAlgebra._straightened_table
    monkeypatch.setattr(wgen.WAlgebra, "_straightened_table",
                        lambda self: calls.append(self) or real(self))
    for label, wal in _damaged_workspaces(name, sample):
        rep = wal.verify_relations()
        assert calls == [wal], (name, label)
        wal._table = real(wal)
        assert wal.verify_relations() == rep, (name, label)
        calls.clear()
    # the certified table holds owned copies: damaging it in place, as
    # test_damaged_reports_frozen does, leaves the closed form as it was
    wal = wgen.WAlgebra(grade(build_algebra(name)))
    want = {key: dict(entry) for key, entry in wal.closed_form_table.items()}
    unit = (0,) * len(wal.generators)
    for entry in wal.commutator_table.values():
        acc(entry, unit, ONE)
    assert calls == []
    assert wal.closed_form_table == want
    assert not wal.verify_relations()["ok"]


@pytest.mark.parametrize("name,entries", [("sl:2|1", 10), ("spo:2|3", 36),
                                          ("spo:2|5", 153), ("psl:2|2", 36)])
def test_every_damaged_closed_entry_fails_the_certificate(name, entries):
    # +1 on the unit term of any one closed entry fails the certificate,
    # also where the pair expansion read that entry's row into the
    # presented U(g, e) before the damage: each derived entry is compared
    # with the closed entry as it stands, not with the row read before
    labels = []
    for label, wal in _damaged_workspaces(name):
        assert wal._certified_table() is None, (name, label)
        labels.append(label)
    assert len(labels) == entries + 1, name


def _presented_builds(monkeypatch):
    """The list each ``PBWAlgebra.presented`` build appends its algebra
    to from now on."""
    built = []
    real = PBWAlgebra.presented.__func__
    monkeypatch.setattr(PBWAlgebra, "presented", classmethod(
        lambda cls, *args: built.append(real(cls, *args)) or built[-1]))
    return built


@pytest.mark.parametrize("name", ["spo:2|3", "sl:2|1", "spo:2|5",
                                  "psl:3|3"])
def test_one_presented_algebra_per_workspace(name, monkeypatch):
    # a cold report builds U(g, e) once, in closed_form_table, and the
    # certificate, the casimir group and ``uge`` read that one; ``uge``
    # hands it out only after the table is certified
    built = _presented_builds(monkeypatch)
    mg = grade(build_algebra(name))
    wal = wgen.WAlgebra(mg)
    assert wal.verify_relations()["ok"], name
    assert built == [wal.uge], name
    wal = wgen.WAlgebra(mg)
    uge = wal.uge
    assert wal._table is not None and built[1:] == [uge], name
    # a damaged closed entry, the longest of two degree-0 generators, whose
    # row the pair expansion may have read, falls back; U(g, e) is built
    # once more, over the straightened table, so the kept algebra holds
    # the true row
    wal = wgen.WAlgebra(mg)
    gens, closed = wal.generators, wal.closed_form_table
    p, q = max(((p, q) for p in range(len(gens)) for q in range(p, len(gens))
                if {gens[p].letter, gens[q].letter} <= set(wal.ge0_letters)),
               key=lambda pq: len(closed[(gens[pq[0]].name,
                                          gens[pq[1]].name)]))
    key = (gens[p].name, gens[q].name)
    want = dict(closed[key])
    acc(closed[key], (0,) * len(gens), ONE)
    wal.verify_relations()
    assert built[2:] == [built[2], wal.uge] and built[2] is not wal.uge, name
    assert wal.commutator_table[key] == want, name
    assert wal.uge.exponents(wal.uge.ad(p, {(q,): ONE})) == want, name


@pytest.mark.parametrize("name", ["spo:2|5", "psl:3|3"])
def test_presented_rows_skip_empty_entries(name, monkeypatch):
    # a cold report reads a letter's partners off which of its table
    # entries are nonempty, and turns only nonempty entries into words
    seen = []
    real = envelope.from_exponents
    monkeypatch.setattr(envelope, "from_exponents",
                        lambda coords: seen.append(dict(coords))
                        or real(coords))
    assert wgen.WAlgebra(grade(build_algebra(name))).verify_relations()["ok"]
    assert seen and all(seen), name


@pytest.mark.xfail(strict=True,
                   reason="verify_relations never reads the (C, C) entry")
@pytest.mark.parametrize("name", ["sl:2|1", "spo:2|3"])
def test_damaged_cc_entry_fails_the_report(name):
    # +1 on the unit term of the closed (C, C) entry alone: the
    # certificate straightens (C, C) in U(g) and falls back, yet the
    # report brackets C only with the other generators and stays ok
    wal = wgen.WAlgebra(grade(build_algebra(name)))
    acc(wal.closed_form_table[("C", "C")], (0,) * len(wal.generators), ONE)
    assert wal._certified_table() is None
    assert not wal.verify_relations()["ok"]


def _sheared(wd, rng):
    n = len(wd.letters)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            m[i][i] *= rng.choice([Fraction(1, 2), Fraction(2), Fraction(3)])
        else:
            c = Fraction(rng.randint(-2, 2))
            for k in range(n):
                m[i][k] += c * m[j][k]

    def push(phi):
        return tuple(sum(m[i][j] * phi[j] for j in range(n))
                     for i in range(n))

    gram = [[sum(m[i][a] * wd.gram[a][b] * m[j][b]
                 for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]
    return WeightData(wd.letters, push(wd.delta_bar), push(wd.rho_bar),
                      push(wd.rho_e0_bar), tuple(tuple(r) for r in gram))


def test_epsilon_ignores_cartan_basis_choice(gradings):
    # the shift constant only uses pairings, so rescaling or shearing
    # the centralizer Cartan basis must not move it
    rng = random.Random(7)
    for name in ["spo:2|3", "spo:4|1"]:
        mg = gradings[name]
        wal = wgen.workspace(mg)
        wd = wal.weight_data
        c0 = wal.c0

        def eps(data):
            return (c0 + Fraction(1, 8)
                    + 2 * data.pair(data.rho_e0_bar, data.delta_bar)
                    + 3 * data.pair(data.delta_bar, data.delta_bar))

        want = wgen.compute_epsilon(mg)
        assert eps(wd) == want
        for _ in range(5):
            assert eps(_sheared(wd, rng)) == want
