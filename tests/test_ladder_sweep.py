"""Opt-in correctness sweep over the supported ladder.

Every descriptor of 50 dims or fewer among gl/sl m|n (m, n <= 5, m != n),
psl n|n (n <= 4) and spo 2n|m (2n <= 10, m <= 7) must build to an algebra
that ``validate`` passes on its certificate path: the letters it checks
the Jacobi identity for generate the algebra, every other letter is
reached from them by an exact recipe, and the full triple loop never
runs.  Its root pass must agree with the Gram-inverse oracle.  On
its grading's rebased adapted algebra, PBW normal forms of seeded words
of length 2 to 4 must equal those of the free rewriter in ``oracles``.
On that grading, every generator lifted by a tail formula must equal the
formula written out in ``oracles.lift_reference``, with the same words in
the same order, and the relation report must be ``ok``, its commutator
table must be certified from a generating set, with no fallback to
straightening every pair, its workspace must have built one presented
U(g, e), the one ``wal.uge`` hands out, and its commutator table in
closed form must equal the one straightened from the lifts in U(g),
entry for entry.
Theta_Cas multiplied from the lifts in U(g) must commute there with
every degree-0 lift, as the report's Theta_Cas does in ``wal.uge``.
That kept algebra, U(g, e) on ordered generator monomials over the
certified closed form, must be associative on seeded triples of
generators and on every triple k >= j >= i of them: the complete overlap
check of the diamond lemma, which the presented algebra of the Cartan
subquotient's relation table must pass too.  On the
grading of every minimal root, the restricted roots must build, which
certifies that the positive ones are simplicial: the
indecomposable ones are independent, and every positive one is a
nonnegative integer combination of them, and c0 (and epsilon in type
odd) must obey the fitted laws of ``oracles.c0_epsilon_law``.  A class
of minimal roots is a value of (parity type, r, s, kind of theta), the
kind as ``oracles.theta_kind`` reads it; on one root of every class
other than the default grading's, the relation report must be ``ok`` on
the certificate path, the closed form must equal the straightened
table, and c0 (and epsilon in type odd) must match ``EXTRA_CLASSES``.
A class holds both theta and -theta, so on every row of parity type odd
the grading of -theta, for theta the default grading's root, gets its own
certified report and the seeded pi products below: -theta must be a
minimal root, and its adapted brackets carry sqrt(2) where those of theta
carry sqrt(-2).
On every row of parity type odd, half the closed-form (g_mid, g_mid)
entry must equal the explicit raiser-square reference, since
Theta(g_mid) is odd.  On every row, pi must be multiplicative on
seeded products of the weight-zero pool, drawn among all its pairs, up
to Kazhdan degree 12, each formed on coordinates in ``wal.uge``, and
must equal the image that ``project_pi_reference`` forms with no memo.
One seeded product of the pool, of Kazhdan degree 8 or less, must have the
coordinates that peeling the U(g) product of its factors gives, must
have the pi image that ``project_pi_reference`` forms with no memo, and
must pass the invariance check that products inherit unchecked.
The JSON of every row's matrix realization, taken together, must match
one frozen SHA-256, and that of each pair of big rows below another.
The sweep takes minutes, so it runs only with ``MINWSUPER_SWEEP=1`` set:

    MINWSUPER_SWEEP=1 PYTHONPATH=src python -m pytest -q tests/test_ladder_sweep.py

The big rows psl:7|7 (dim 194), spo:14|7 (dim 224), spo:18|9 (dim 369)
and psl:10|10 (dim 398) run with ``MINWSUPER_BIG=1``: ``validate`` is
clean on its generating-set path, with exact recipes, the relation
report is ``ok`` with its commutator table certified from a generating
set and one presented U(g, e) built, c0 and epsilon obey the fitted
laws, and the realizations of each pair match their frozen SHA-256.

    MINWSUPER_BIG=1 PYTHONPATH=src python -m pytest -q tests/test_ladder_sweep.py
"""

import hashlib
import json
import os
import random

import pytest

from minwsuper import superalgebra, wgen
from minwsuper.cartanw import build_cartan_w, project_pi, restricted_roots
from minwsuper.envelope import PBWAlgebra
from minwsuper.grading import grade
from minwsuper.scalar import HALF, ONE, axpy
from minwsuper.superalgebra import (_reach, _seed_letters, _weights_of_basis,
                                    build_algebra, minimal_root_candidates,
                                    root_decomposition, validate)

from oracles import (assert_exact_recipes, c0_epsilon_law,
                     casimir_vs_quadratic_reference, free_normal_form,
                     generated_dimension, gram_minimal_roots,
                     lift_reference, overlap_failures, project_pi_reference,
                     raiser_square_reference, theta_kind, weight_form,
                     weight_zero_pool)

MAX_DIM = 50
BIG_ROWS = ["psl:7|7", "spo:14|7"]
BIGGER_ROWS = ["spo:18|9", "psl:10|10"]
# descriptor -> {(parity type, r, s, kind of theta): (c0, epsilon or
# None)} for each class of minimal roots other than the default grading's,
# as ``Scalar.render`` prints them: regression freezes of the current
# build, each also checked by ``c0_epsilon_law``
EXTRA_CLASSES = {
    "gl:2|3": {("even", 4, 2, "gl"): ("1/4", None)},
    "gl:2|4": {("even", 4, 4, "gl"): ("-1/2", None)},
    "gl:2|5": {("even", 4, 6, "gl"): ("-5/4", None)},
    "gl:3|2": {("even", 6, 0, "gl"): ("7/4", None)},
    "gl:3|4": {("even", 6, 4, "gl"): ("1/4", None)},
    "gl:4|2": {("even", 8, 0, "gl"): ("5/2", None)},
    "gl:4|3": {("even", 8, 2, "gl"): ("7/4", None)},
    "gl:5|2": {("even", 10, 0, "gl"): ("13/4", None)},
    "sl:2|3": {("even", 4, 2, "gl"): ("1/4", None)},
    "sl:2|4": {("even", 4, 4, "gl"): ("-1/2", None)},
    "sl:2|5": {("even", 4, 6, "gl"): ("-5/4", None)},
    "sl:3|2": {("even", 6, 0, "gl"): ("7/4", None)},
    "sl:3|4": {("even", 6, 4, "gl"): ("1/4", None)},
    "sl:4|2": {("even", 8, 0, "gl"): ("5/2", None)},
    "sl:4|3": {("even", 8, 2, "gl"): ("7/4", None)},
    "sl:5|2": {("even", 10, 0, "gl"): ("13/4", None)},
    "spo:2|4": {("even", 4, 0, "so"): ("2", None)},
    "spo:2|5": {("even", 4, 2, "so"): ("1", None)},
    "spo:2|6": {("even", 4, 4, "so"): ("0", None)},
    "spo:2|7": {("even", 4, 6, "so"): ("-1", None)},
    "spo:4|4": {("even", 8, 0, "so"): ("4", None)},
    "spo:4|5": {("even", 8, 2, "so"): ("3", None)},
    "spo:4|6": {("even", 8, 4, "so"): ("2", None)},
}
# Regression freezes, not independent truths: one sha256 over the sorted
# JSON of every realization in ``ladder()`` order, and one over each
# list of big rows
LADDER_REALIZATIONS_DIGEST = \
    "c88455be981f4041dd866dc349b5ae926361e1d909535e583a3edfd7efee9147"
BIG_REALIZATIONS_DIGEST = \
    "6c474a294d5c190edb7656f66d085af8b51717269783e3860e993e3af6ef80b1"
BIGGER_REALIZATIONS_DIGEST = \
    "c74e68613bf933a822e854dcb0d9c477c3a6e4969ad822f5391a20a43b01e3a0"
# the words the PBW normal form is checked on per row
FREE_WORDS = 10
# the products pi is checked on per row, or every pair of a smaller pool
PI_PRODUCTS = 24
# the generator triples the presented U(g, e) must associate on per row
TRIPLES = 200


def _dim(family, p, q):
    if family == "gl":
        return (p + q) ** 2
    if family == "sl":
        return (p + q) ** 2 - 1
    if family == "psl":
        return 4 * p * p - 2
    n = p // 2  # spo 2n|m: sp(2n) + so(m) even, C^2n x C^m odd
    return n * (2 * n + 1) + q * (q - 1) // 2 + 2 * n * q


def ladder():
    rows = [(fam, m, n) for fam in ("gl", "sl")
            for m in range(1, 6) for n in range(1, 6) if m != n]
    # psl:1|1 is abelian and has no minimal root, so the rows start at 2|2
    rows += [("psl", n, n) for n in range(2, 5)]
    rows += [("spo", twon, m) for twon in range(2, 11, 2) for m in range(1, 8)]
    return ["%s:%d|%d" % row for row in rows if _dim(*row) <= MAX_DIM]


def test_ladder_rows():
    rows = ladder()
    assert len(rows) == len(set(rows)) == 51
    assert {"sl:3|4", "psl:3|3", "spo:8|1", "spo:4|6"} <= set(rows)
    assert build_algebra("spo:4|6").dim == _dim("spo", 4, 6) == 49
    # the gl and sl rows m|n with m, n >= 2, and six spo rows
    assert set(EXTRA_CLASSES) == {
        row for row in rows if row[:3] in ("gl:", "sl:")
        and min(map(int, row[3:].split("|"))) >= 2} | {
        "spo:2|4", "spo:2|5", "spo:2|6", "spo:2|7", "spo:4|4", "spo:4|5",
        "spo:4|6"}
    assert sum(map(len, EXTRA_CLASSES.values())) == 23


def _clean_on_generating_letters(g, monkeypatch):
    """Assert that ``validate(g)`` is clean and checks the Jacobi identity
    in one call, for letters that generate g, reached by exact recipes:
    no fallback to the full loop."""
    rows = g._bracket
    seed = _seed_letters(g)
    reach = _reach(range(g.dim), seed, lambda x, r: rows.get((x, r)))
    letters = reach[0]
    assert_exact_recipes(range(g.dim), seed,
                         lambda x, r: rows.get((x, r), {}), reach)
    assert generated_dimension(g, letters) == g.dim, g.display
    calls = []
    real = superalgebra._jacobi_failures
    with monkeypatch.context() as patch:
        patch.setattr(superalgebra, "_jacobi_failures",
                      lambda g, first, indexes, unordered=False:
                      calls.append(list(first))
                      or real(g, first, indexes, unordered=unordered))
        assert validate(g) == [], g.display
    assert calls == [letters], g.display


def _certified_report(wal, monkeypatch):
    """The cold relation report of ``wal``, asserting that its commutator
    table was certified without a fallback and equals the closed form,
    and that the workspace built its presented U(g, e) once, the one
    ``wal.uge`` hands out."""
    calls, built = [], []
    real = wgen.WAlgebra._straightened_table
    present = PBWAlgebra.presented.__func__
    with monkeypatch.context() as patch:
        patch.setattr(wgen.WAlgebra, "_straightened_table",
                      lambda self: calls.append(self) or real(self))
        patch.setattr(PBWAlgebra, "presented", classmethod(
            lambda cls, *args: built.append(present(cls, *args))
            or built[-1]))
        rep = wal.verify_relations()
    assert calls == [], wal.algebra.display
    assert built == [wal.uge], wal.algebra.display
    assert rep["ok"], [i for i in rep["identities"] if i["failures"]]
    assert wal.closed_form_table == wal.commutator_table
    return rep


def _pi_products(wal, desc):
    """The ordered pairs of the weight-zero pool of ``wal``, after pi is
    checked on seeded products of them, each formed on coordinates in
    ``wal.uge``: multiplicative, and equal to ``project_pi_reference``."""
    pool = weight_zero_pool(wal)
    pairs = [(x, y) for x in pool for y in pool]
    for x, y in random.Random(desc).sample(pairs,
                                           min(PI_PRODUCTS, len(pairs))):
        xy = wgen.w_multiply(x, y)
        assert project_pi(xy) == project_pi(x) * project_pi(y), desc
        assert project_pi(xy) == project_pi_reference(xy), desc
    return pairs


def _assert_c0_epsilon_law(desc, gr):
    """c0, and epsilon in type odd, of ``gr`` obey ``c0_epsilon_law``."""
    c0, epsilon = c0_epsilon_law(desc, gr)
    assert wgen.compute_c0(gr) == c0, (desc, gr.theta)
    if epsilon is not None:
        assert wgen.compute_epsilon(gr) == epsilon, (desc, gr.theta)


def _realizations_digest(rows):
    digest = hashlib.sha256()
    for desc in rows:
        digest.update(json.dumps(build_algebra(desc).to_json_dict(),
                                 sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.skipif(os.environ.get("MINWSUPER_BIG") != "1",
                    reason="big rows run only with MINWSUPER_BIG=1")
def test_big_realizations_frozen():
    assert _realizations_digest(BIG_ROWS) == BIG_REALIZATIONS_DIGEST
    assert _realizations_digest(BIGGER_ROWS) == BIGGER_REALIZATIONS_DIGEST


@pytest.mark.skipif(os.environ.get("MINWSUPER_SWEEP") != "1",
                    reason="ladder sweep runs only with MINWSUPER_SWEEP=1")
def test_ladder_realizations_frozen():
    assert _realizations_digest(ladder()) == LADDER_REALIZATIONS_DIGEST


@pytest.mark.skipif(os.environ.get("MINWSUPER_BIG") != "1",
                    reason="big rows run only with MINWSUPER_BIG=1")
@pytest.mark.parametrize("desc", BIG_ROWS + BIGGER_ROWS)
def test_big_row_validates_and_verifies(desc, monkeypatch):
    g = build_algebra(desc)
    _clean_on_generating_letters(g, monkeypatch)
    gr = grade(g)
    _assert_c0_epsilon_law(desc, gr)
    _certified_report(wgen.workspace(gr), monkeypatch)


@pytest.mark.skipif(os.environ.get("MINWSUPER_SWEEP") != "1",
                    reason="ladder sweep runs only with MINWSUPER_SWEEP=1")
@pytest.mark.parametrize("desc", ladder())
def test_ladder_validates_and_verifies(desc, monkeypatch):
    g = build_algebra(desc)
    assert g.dim <= MAX_DIM, desc
    _clean_on_generating_letters(g, monkeypatch)
    rd = root_decomposition(g)
    cands = minimal_root_candidates(g, rd.spaces)
    want = gram_minimal_roots(g, _weights_of_basis(g))
    assert list(cands) == list(want) and cands == want, desc
    pair = weight_form(g)
    tt = pair(rd.theta, rd.theta)
    assert all(rd.degree[a] == 2 * pair(a, rd.theta) / tt
               for a in rd.roots), desc
    def key(gr):
        return gr.parity_type, gr.r, gr.s, theta_kind(desc, gr)

    default = grade(g)
    classes = {}
    for theta in cands:
        gr = grade(g, theta)
        # building them certifies that the positive ones are simplicial
        restricted_roots(gr)
        _assert_c0_epsilon_law(desc, gr)
        classes.setdefault(key(gr), gr)
    extra = {}
    for cls, gr in classes.items():
        if cls != key(default):
            other = wgen.workspace(gr)
            rep = _certified_report(other, monkeypatch)
            assert other.closed_form_table == other._straightened_table()
            extra[cls] = (rep["c0"], rep["epsilon"])
    assert extra == EXTRA_CLASSES.get(desc, {}), desc
    if default.parity_type == "odd":
        # theta and -theta share a class, but the adapted brackets of -theta
        # carry sqrt(2) where those of theta carry sqrt(-2)
        neg = tuple(-c for c in default.theta)
        assert neg in cands, desc
        other = wgen.workspace(grade(g, neg))
        _certified_report(other, monkeypatch)
        _pi_products(other, desc)
    wal = wgen.workspace(default)
    adapted = wal.algebra
    rng = random.Random(desc)
    for _ in range(FREE_WORDS):
        word = [rng.randrange(adapted.dim) for _ in range(rng.randint(2, 4))]
        assert wal.pbw.from_words([(word, ONE)]) == free_normal_form(
            word, ONE, range(adapted.dim),
            lambda i, j: adapted.bracket({i: ONE}, {j: ONE}),
            lambda i: adapted.parity[i]), (desc, word)
    for gen in wal.generators:
        if gen.letter is not None and gen.name != "F":
            want = lift_reference(wal, {gen.letter: ONE})
            assert list(gen.element.value.items()) == list(want.items()), \
                (desc, gen.name)
    _certified_report(wal, monkeypatch)
    assert wal.closed_form_table == wal._straightened_table()
    assert casimir_vs_quadratic_reference(wal)["failures"] == [], desc
    gens, uge = wal.generators, wal.uge
    rng = random.Random(desc)
    for _ in range(TRIPLES):
        x, y, z = ({(rng.randrange(len(gens)),): ONE} for _ in range(3))
        assert uge.mul(uge.mul(x, y), z) == uge.mul(x, uge.mul(y, z)), \
            (desc, x, y, z)
    cw = build_cartan_w(default)
    for pbw, n in ((uge, len(gens)), (cw.pbw, len(cw.names))):
        assert overlap_failures(pbw, n)[1] == [], desc
    if wal.grading.parity_type == "odd":
        gmid = adapted.labels[wal.grading.gmid]
        half = {}
        axpy(half, HALF, wal.evaluate_coordinates(
            wal.closed_form_table[(gmid, gmid)]).value)
        assert half == raiser_square_reference(wal), desc
    pairs = _pi_products(wal, desc)
    # one seeded product, formed in wal.uge, against U(g): its coordinates
    # are those of the U(g) product of the values, pi is multiplicative on
    # it and agrees with pi formed afresh with no memo, and it passes the
    # invariance check that products inherit
    x, y = random.Random(desc).choice(
        [(x, y) for x, y in pairs if x.kdeg + y.kdeg <= 8])
    xy = wgen.w_multiply(x, y)
    assert wgen.pbw_coordinates(xy) == wal.pbw_coordinates(
        wal.mul_raw(x.value, y.value)), desc
    assert project_pi(xy) == project_pi(x) * project_pi(y), desc
    assert project_pi(xy) == project_pi_reference(xy), desc
    assert wal.certify(xy.value, wal.sub["nzero"]) == xy, desc
