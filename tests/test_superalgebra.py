import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest
import sympy

from minwsuper import superalgebra
from minwsuper.errors import PreconditionError, UnsupportedFamilyError
from minwsuper.grading import grade
from minwsuper.scalar import ONE, ZERO, Scalar, acc, scalar
from minwsuper.superalgebra import (
    LinearSolver,
    _indecomposable,
    _rational_inverse,
    _rational_kernel,
    _reach,
    _seed_letters,
    _weights_of_basis,
    build_algebra,
    minimal_root_candidates,
    parse_descriptor,
    root_decomposition,
    validate,
)

from oracles import (assert_exact_recipes, generated_dimension,
                     gram_minimal_roots, rebase_reference, validate_reference,
                     weight_form)

DIMS = {
    "osp:1|2": (3, 2),
    "spo:2|3": (6, 6),
    "sl:2|1": (4, 4),
    "sl:2|3": (12, 12),
    "psl:2|2": (6, 8),
    "gl:2|1": (5, 4),
    "spo:4|1": (10, 4),
    "spo:2|4": (9, 8),
    "spo:4|2": (11, 8),
}


@pytest.fixture(scope="module")
def algebras():
    return {desc: build_algebra(desc) for desc in DIMS}


def test_descriptor_parsing():
    assert parse_descriptor("spo:2|3") == ("spo", (2, 3))
    assert parse_descriptor("osp:3|2") == ("spo", (2, 3))
    assert parse_descriptor("osp:1|2") == ("spo", (2, 1))
    assert parse_descriptor("gl:2|1") == ("gl", (2, 1))
    for bad in ("sl:2|2", "gl:3|3", "q:3", "d21a:1", "spo:3|2", "sl:2", "x",
                "gl:0|3", "sl:0|2", "spo:0|3", "spo:2|0",
                ("sl", (2.5, 1)), ("osp", (1, 2.0)), ("spo", (2, True)),
                ("sl", ("2", "1")), ("gl", 5),
                # ASCII digits only: int() reads each of these
                "gl:1_0|2", "spo:\u0662|3", "spo:+2|3",
                # the family as written: no spaces, no case folding
                " SPO :2|3", "SPO:2|3", "Osp:1|2"):
        with pytest.raises(UnsupportedFamilyError):
            parse_descriptor(bad)


def test_dimensions(algebras):
    for desc, (ev, od) in DIMS.items():
        g = algebras[desc]
        assert (g.dim_even, g.dim_odd) == (ev, od), desc


# Regression freezes, not independent truths: sha256 digests of
# json.dumps(to_json_dict(), sort_keys=True) of each realization, which
# any rewrite of a builder must reproduce: gl, sl in both block orders,
# psl from 1|1 (no Cartan letters) up, and spo of both parities of m
FROZEN_REALIZATION_DIGESTS = {
    "osp:1|2": "fdf043efa7d9e73ac35b3b68e386dfba77cab370faf5ad5a51f08ae49b861da0",
    "gl:2|1": "f30e554970ab9d8fbd5b5afe064dab2136696550355a05ddf9a34a9b58f64077",
    "sl:1|4": "51c1f01472109b81f0ca9796c3ceac55b3fd329e1daaec8207462987cf986454",
    "sl:3|2": "8093af4467a90bd56a457f0126d0cfca5ffd8d58cb76a79f4b84cd5bcaea57cc",
    "psl:1|1": "c9e5b8e8aee514027dc43c2aff08b1c7b4ec2451b1567080a56d2a1f3b48171d",
    "psl:2|2": "f758d42055386108a525063e2ef59f44ee7d3e44758026dd48057a99182333d2",
    "psl:3|3": "361d6c5a37c4e359668a9418386e85f91eabeae3d279bf655441cac67475cd9b",
    "psl:4|4": "d277dd05ca7530a147722ec181ec6a393979dcccd13ba14594fcaea4072d6f77",
    "spo:2|3": "e1308715ef12ae4c57ff3870f3f6a58f22ea4987468eb96a2cb5b4d985475c8b",
    "spo:2|6": "47153754efb74f6116ad99acfb5d5e5d54d596a9c6713a6a5984fe8242e6e153",
    "spo:4|3": "cc2132a30e90fb91ae0c3327a52a5d027668707d9c6a30f387d57a6655319382",
    "spo:6|2": "358a621e05ffdbb4ef8200e250bc1e7b7b4319d1f1535e709febbc72fe052aab",
    "spo:8|1": "f28a51050588d8c942803945f8b7414b85478438975349208222bfb306b41a3f",
}


@pytest.mark.parametrize("desc", sorted(FROZEN_REALIZATION_DIGESTS))
def test_realizations_frozen(desc):
    text = json.dumps(build_algebra(desc).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        FROZEN_REALIZATION_DIGESTS[desc]


@pytest.mark.parametrize("desc", ["sl:2|1", "spo:2|3"])
def test_build_solves_each_unordered_pair_once(desc, monkeypatch):
    # [j, i] is read off [i, j] by the supersign, so the structure
    # constants of a build with no eliminators take one solve per unordered
    # pair with a nonzero bracket; the builder's own kernels are not counted
    calls = []
    real = LinearSolver.solve

    def spy(self, vec):
        if sys._getframe(1).f_code is superalgebra._finish.__code__:
            calls.append(vec)
        return real(self, vec)
    monkeypatch.setattr(LinearSolver, "solve", spy)
    g = build_algebra(desc)
    assert len(calls) == sum(1 for i, j in g._bracket if i <= j)
    assert list(g._bracket) == sorted(g._bracket)
    for (i, j), row in g._bracket.items():
        sign = 1 if g.parity[i] and g.parity[j] else -1
        assert g._bracket[j, i] == {k: sign * v for k, v in row.items()}


@pytest.mark.parametrize("desc", ["sl:2|1", "spo:2|3"])
def test_rebase_brackets_each_unordered_pair_once(desc, monkeypatch):
    # rebase writes [j, i] and (j, i) from [i, j] and (i, j), and forms
    # only the pairs whose supports meet a stored bracket row or form
    # entry: one bracket of new letters per such pair i <= j, in order
    g = build_algebra(desc)
    calls = []
    cls = superalgebra.LieSuperalgebra
    real = cls.bracket

    def spy(self, x, y):
        if sys._getframe(1).f_code is cls.rebase.__code__:
            calls.append((x, y))
        return real(self, x, y)
    monkeypatch.setattr(cls, "bracket", spy)
    mg = grade(g)
    alg = mg.algebra
    n = alg.dim
    work = mg.base.with_form_scaled(mg.scale)
    vectors = list(mg._letter_vectors)
    stored = set(work._bracket) | set(work.form)
    meeting = [(i, j) for i in range(n) for j in range(i, n)
               if any((a, b) in stored
                      for a in vectors[i] for b in vectors[j])]
    assert calls == [(vectors[i], vectors[j]) for i, j in meeting]
    assert len(meeting) < n * (n + 1) // 2
    # every skipped pair is empty where each bracket is solved afresh
    ref = rebase_reference(work, vectors, alg.cartan)
    for i in range(n):
        for j in range(i, n):
            if (i, j) not in meeting:
                assert not ref.bracket_basis(i, j), (i, j)
                assert (i, j) not in ref.form, (i, j)
    assert list(alg._bracket) == sorted(alg._bracket)
    assert list(alg.form) == sorted(alg.form)
    for (i, j), row in alg._bracket.items():
        assert list(row) == sorted(row)
        sign = 1 if alg.parity[i] and alg.parity[j] else -1
        assert alg._bracket[j, i] == {k: sign * v for k, v in row.items()}
    assert validate(alg) == []


def test_validate_clean(algebras):
    for desc, g in algebras.items():
        assert validate(g) == [], desc


# Regression freezes, not independent truths: the full reports of the two
# damaged sl:2|1 algebras of test_validate_detects_damage, strings and
# order, read from the build whose Jacobi check still called
# LieSuperalgebra.bracket on basis vectors.
DAMAGED_CONSTANT_REPORT = [
    "skew: [0,2] vs [2,0] at 2", "skew: [2,0] vs [0,2] at 2",
    "jacobi: (0,2,4)", "jacobi: (0,2,5)", "jacobi: (0,2,6)", "jacobi: (0,3,7)",
    "jacobi: (0,4,2)", "jacobi: (0,5,2)", "jacobi: (0,6,2)", "jacobi: (0,7,3)",
    "jacobi: (2,0,0)", "jacobi: (2,0,1)", "jacobi: (2,4,2)", "jacobi: (3,0,7)",
    "jacobi: (3,6,2)", "jacobi: (4,0,2)", "jacobi: (4,2,2)", "jacobi: (5,0,2)",
    "jacobi: (6,0,2)", "jacobi: (6,3,2)", "jacobi: (7,0,3)",
    "form not invariant at (0,2,4)", "form not invariant at (4,0,2)",
]
DAMAGED_ZERO_REPORT = [
    "jacobi: (0,2,3)", "jacobi: (0,3,2)", "jacobi: (1,2,3)", "jacobi: (1,3,2)",
    "jacobi: (2,0,3)", "jacobi: (2,1,3)", "jacobi: (2,3,0)", "jacobi: (2,3,1)",
    "jacobi: (2,3,4)", "jacobi: (2,3,6)", "jacobi: (2,3,7)", "jacobi: (2,4,3)",
    "jacobi: (2,6,3)", "jacobi: (2,7,3)", "jacobi: (3,0,2)", "jacobi: (3,1,2)",
    "jacobi: (3,2,0)", "jacobi: (3,2,1)", "jacobi: (3,2,4)", "jacobi: (3,2,6)",
    "jacobi: (3,2,7)", "jacobi: (3,3,7)", "jacobi: (3,4,2)", "jacobi: (3,6,2)",
    "jacobi: (3,7,2)", "jacobi: (3,7,3)", "jacobi: (4,2,3)", "jacobi: (4,3,2)",
    "jacobi: (6,2,3)", "jacobi: (6,3,2)", "jacobi: (7,2,3)", "jacobi: (7,3,2)",
    "jacobi: (7,3,3)", "form not invariant at (2,3,6)",
    "form not invariant at (3,2,6)", "form not invariant at (6,2,3)",
    "form not invariant at (6,3,2)",
]


def test_validate_detects_damage():
    g = build_algebra("sl:2|1")
    # find a nonzero structure constant and corrupt it
    key = next(k for k, v in g._bracket.items() if v)
    tgt = next(iter(g._bracket[key]))
    g._bracket[key][tgt] = g._bracket[key][tgt] + ONE
    assert validate(g) == DAMAGED_CONSTANT_REPORT == validate_reference(g)
    # a zero bracket made nonzero, skew-consistently so that only the
    # Jacobi and invariance checks can see it, must be reported as well
    g = build_algebra("sl:2|1")
    i, j = next((i, j) for i in range(g.dim) for j in range(i + 1, g.dim)
                if not g.bracket_basis(i, j)
                and i not in g.cartan and j not in g.cartan)
    k = next(k for k in range(g.dim)
             if g.parity[k] == (g.parity[i] + g.parity[j]) % 2)
    sign = -1 if g.parity[i] and g.parity[j] else 1
    g._bracket[(i, j)] = {k: ONE}
    g._bracket[(j, i)] = {k: -sign * ONE}
    report = validate(g)
    assert any(v.startswith("jacobi") for v in report)
    assert any(v.startswith("form not invariant") for v in report)
    assert report == DAMAGED_ZERO_REPORT == validate_reference(g)


# Regression freezes, not independent truths: the full reports of two
# damaged sl:2|1 forms, strings and order, read from the build that still
# stored the form as a dense dim x dim tuple and checked invariance one
# (i, j, k) triple at a time.
DAMAGED_DIAGONAL_FORM_REPORT = [
    "form not invariant at (%s)" % t for t in (
        "0,2,4", "0,3,6", "0,4,2", "0,6,3", "2,4,0", "3,6,0", "4,2,0",
        "6,3,0")
]
DAMAGED_ODD_FORM_REPORT = [
    "form not even at (0,3)", "form not supersymmetric at (0,3)",
    "form not supersymmetric at (3,0)",
] + [
    "form not invariant at (%s)" % t for t in (
        "0,0,3", "0,1,3", "0,2,5", "0,3,0", "0,5,2", "2,4,3", "3,6,3",
        "4,2,3", "6,3,3")
]


def test_validate_detects_form_damage():
    # a diagonal Cartan entry grown by one: still even and supersymmetric
    g = build_algebra("sl:2|1")
    assert (0, 0) in g.form
    g.form[(0, 0)] = g.form[(0, 0)] + ONE
    assert validate(g) == DAMAGED_DIAGONAL_FORM_REPORT == validate_reference(g)
    # an entry pairing an even with an odd letter, stored one way only
    g = build_algebra("sl:2|1")
    assert (g.parity[0], g.parity[3]) == (0, 1) and (0, 3) not in g.form
    g.form[(0, 3)] = ONE
    assert validate(g) == DAMAGED_ODD_FORM_REPORT == validate_reference(g)


def test_form_scaled_copy_owns_its_brackets():
    # a bracket row written into one algebra leaves the other intact
    for damaged in ("base", "scaled"):
        base = build_algebra("sl:2|1")
        pair = {"base": base, "scaled": base.with_form_scaled(2)}
        other = pair["scaled" if damaged == "base" else "base"]
        rows = other.to_json_dict()["bracket"]
        g = pair[damaged]
        key = next(k for k, v in g._bracket.items() if v)
        tgt = next(iter(g._bracket[key]))
        g._bracket[key][tgt] = g._bracket[key][tgt] + ONE
        assert validate(g) == DAMAGED_CONSTANT_REPORT, damaged
        assert validate(g) == validate_reference(g), damaged
        assert other.to_json_dict()["bracket"] == rows, damaged
        assert validate(other) == [], damaged


def test_form_scaled_by_zero_is_refused():
    # a zero form has no inverse: grade would divide by zero
    for zero in (0, Fraction(0), ZERO):
        with pytest.raises(PreconditionError):
            build_algebra("sl:2|1").with_form_scaled(zero)


def test_rebase_rejects_a_basis_it_cannot_invert():
    g = build_algebra("sl:2|1")
    letters = [{i: ONE} for i in range(g.dim)]
    assert g.rebase(letters, g.cartan).to_json_dict()["bracket"] == \
        g.to_json_dict()["bracket"]
    with pytest.raises(PreconditionError, match="full basis"):
        g.rebase(letters[:-1], g.cartan)
    odd = g.parity.index(1)
    mixed = letters[:1] + [{0: ONE, odd: ONE}] + letters[2:]
    with pytest.raises(PreconditionError, match="vector 1 is parity mixed"):
        g.rebase(mixed, g.cartan)
    with pytest.raises(PreconditionError, match="dependent at 2"):
        g.rebase(letters[:2] + [{0: ONE, 1: ONE}] + letters[3:], g.cartan)


def _spy_jacobi(monkeypatch):
    """Record the ``first`` letters of every ``_jacobi_failures`` call."""
    calls = []
    real = superalgebra._jacobi_failures

    def spy(g, first, indexes, unordered=False):
        calls.append(list(first))
        return real(g, first, indexes, unordered=unordered)
    monkeypatch.setattr(superalgebra, "_jacobi_failures", spy)
    return calls


def _letters(g, seed):
    """``_reach``'s X from ``seed`` under the stored bracket rows, as
    ``validate`` finds it."""
    return _reach(range(g.dim), seed, _row_bracket(g))[0]


def _row_bracket(g):
    rows = g._bracket
    return lambda x, r: rows.get((x, r))


def test_clean_validate_checks_only_the_generating_letters(algebras,
                                                          monkeypatch):
    calls = _spy_jacobi(monkeypatch)
    for desc, g in algebras.items():
        letters = _letters(g, _seed_letters(g))
        assert generated_dimension(g, letters) == g.dim, desc
        assert len(letters) < g.dim, desc
        del calls[:]
        assert validate(g) == [], desc
        assert calls == [letters], desc


def test_closure_extends_the_seed():
    # gl:2|1 is sl:2|1 plus a centre, which no root letter reaches;
    # the letters of psl:3|3's lex-positive simple roots generate 24 of
    # its 34 dims
    for desc, extra in (("gl:2|1", 1), ("psl:3|3", 2)):
        g = build_algebra(desc)
        seed = _seed_letters(g)
        letters = _letters(g, seed)
        assert letters[:len(seed)] == seed, desc
        assert len(letters) == len(seed) + extra, desc
        assert generated_dimension(g, seed) < g.dim, desc
        assert generated_dimension(g, letters) == g.dim, desc
    g = build_algebra("gl:2|1")
    assert _letters(g, _seed_letters(g))[-1] in g.cartan


def test_cartan_letters_alone_do_not_generate(algebras):
    for desc, g in algebras.items():
        cartan = list(g.cartan)
        assert generated_dimension(g, cartan) == len(cartan) < g.dim, desc
        letters = _letters(g, cartan)
        assert letters[:len(cartan)] == cartan, desc
        assert len(letters) > len(cartan), desc
        assert generated_dimension(g, letters) == g.dim, desc


def test_reaching_recipes_are_exact(algebras):
    # every recipe, summed from the stored rows, is its letter, from the
    # seeds validate uses and from the Cartan letters alone
    for desc, g in algebras.items():
        for seed in (_seed_letters(g), list(g.cartan)):
            reach = _reach(range(g.dim), seed, _row_bracket(g))
            assert_exact_recipes(range(g.dim), seed,
                                 lambda x, r: g._bracket.get((x, r), {}),
                                 reach)


def test_generating_letter_counts():
    # the size of X, which sets the work of a clean Jacobi check:
    # frozen from the build that first certified Jacobi this way
    for desc, size in (("gl:2|1", 5), ("psl:3|3", 10), ("spo:8|1", 8),
                       ("sl:3|4", 12), ("gl:3|4", 13)):
        g = build_algebra(desc)
        assert len(_letters(g, _seed_letters(g))) == size, desc


def test_damage_outside_the_generating_letters_is_reported(monkeypatch):
    # a skew-consistent change to a row of two letters outside X: no
    # parity or skew report, so a triple with i in X must catch it
    g = build_algebra("sl:2|3")
    letters = set(_letters(g, _seed_letters(g)))
    key = next((i, j) for (i, j), row in sorted(g._bracket.items())
               if i not in letters and j not in letters and i != j)
    t = next(iter(g._bracket[key]))
    sign = -1 if g.parity[key[0]] and g.parity[key[1]] else 1
    acc(g._bracket[key], t, ONE)
    acc(g._bracket[key[::-1]], t, -sign * ONE)
    calls = _spy_jacobi(monkeypatch)
    report = validate(g)
    assert any(v.startswith("jacobi") for v in report)
    assert report == validate_reference(g)
    assert len(calls) == 2 and calls[1] == list(range(g.dim))


def test_odd_self_bracket_damage_is_caught_on_the_diagonal(monkeypatch):
    # [j, j] of an odd letter is symmetric, so +1 on one of its components
    # is skew-consistent and only the Jacobi pass can see it; the
    # unordered pass keeps the diagonal j = k, where J(i, j, j) need not
    # vanish for odd j, and reports it there
    g = build_algebra("sl:2|3")
    j = g.parity.index(1)
    k = next(k for k in range(g.dim) if g.parity[k] == 0)
    acc(g._bracket.setdefault((j, j), {}), k, ONE)
    passes = []
    real = superalgebra._jacobi_failures

    def spy(g, first, indexes, unordered=False):
        failures = real(g, first, indexes, unordered=unordered)
        passes.append((unordered, failures))
        return failures
    monkeypatch.setattr(superalgebra, "_jacobi_failures", spy)
    report = validate(g)
    assert [unordered for unordered, _ in passes] == [True, False]
    triples = [tuple(map(int, line[len("jacobi: ("):-1].split(",")))
               for line in passes[0][1]]
    assert triples and all(b <= c for _, b, c in triples)
    assert any(b == c == j for _, b, c in triples)
    assert report == validate_reference(g)


def test_validate_builds_the_row_indexes_once(monkeypatch):
    # both Jacobi passes and the invariance check share one build of the
    # stored-row indexes: on a clean algebra (one Jacobi pass), on damage
    # outside X (two passes) and on a skew damage (the full pass alone)
    builds = []
    real = superalgebra._row_indexes
    monkeypatch.setattr(superalgebra, "_row_indexes",
                        lambda rows: builds.append(1) or real(rows))
    calls = _spy_jacobi(monkeypatch)
    clean = build_algebra("sl:2|3")
    outside = build_algebra("sl:2|3")
    letters = set(_letters(outside, _seed_letters(outside)))
    key = next((i, j) for (i, j), row in sorted(outside._bracket.items())
               if i not in letters and j not in letters and i != j)
    t = next(iter(outside._bracket[key]))
    sign = -1 if outside.parity[key[0]] and outside.parity[key[1]] else 1
    acc(outside._bracket[key], t, ONE)
    acc(outside._bracket[key[::-1]], t, -sign * ONE)
    skew = build_algebra("sl:2|1")
    acc(skew._bracket[next(k for k, v in skew._bracket.items() if v)],
        0, ONE)
    for g, passes in ((clean, 1), (outside, 2), (skew, 1)):
        del builds[:], calls[:]
        report = validate(g)
        assert len(builds) == 1 and len(calls) == passes, g.display
        assert report == validate_reference(g), g.display
        assert bool(report) == (g is not clean), g.display


def _damage_constant(g, rng):
    """One stored structure constant off by one; half the time its skew
    partner moves with it."""
    (i, j), row = rng.choice(sorted(g._bracket.items()))
    k = rng.choice(sorted(row))
    delta = rng.choice((ONE, -ONE))
    acc(row, k, delta)
    if i != j and rng.random() < 0.5:
        sign = -1 if g.parity[i] and g.parity[j] else 1
        acc(g._bracket.setdefault((j, i), {}), k, -sign * delta)


def _damage_zero_row(g, rng):
    """A zero bracket made nonzero, skew-consistently, with the parity of
    its output right."""
    i, j = rng.choice([(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)
                       if not g.bracket_basis(i, j)])
    k = rng.choice([k for k in range(g.dim)
                    if g.parity[k] == (g.parity[i] + g.parity[j]) % 2])
    c = scalar(rng.choice((1, -1, 2, Fraction(1, 2))))
    sign = -1 if g.parity[i] and g.parity[j] else 1
    g._bracket[(i, j)] = {k: c}
    g._bracket[(j, i)] = {k: -sign * c}


def _damage_cartan_row(g, rng):
    """[h, x] for a Cartan letter h given a component off x, of the parity
    of x, skew-consistently: ad h is no longer diagonal."""
    h = rng.choice(g.cartan)
    x = rng.choice([x for x in range(g.dim) if g.bracket_basis(h, x)])
    k = rng.choice([k for k in range(g.dim)
                    if k != x and g.parity[k] == g.parity[x]])
    acc(g._bracket.setdefault((h, x), {}), k, ONE)
    acc(g._bracket.setdefault((x, h), {}), k, -ONE)


def _damage_form(g, rng):
    """A stored form entry grown, with its supersymmetric partner; or, half
    the time, a new entry off the diagonal stored one way only."""
    c = scalar(rng.choice((1, -1, 2, Fraction(1, 2))))
    if rng.random() < 0.5:
        i, j = rng.choice(sorted(g.form))
        acc(g.form, (i, j), c)
        if i != j:
            acc(g.form, (j, i), -c if g.parity[i] and g.parity[j] else c)
    else:
        key = rng.choice([(i, j) for i in range(g.dim) for j in range(g.dim)
                          if i != j and (i, j) not in g.form])
        g.form[key] = c


DAMAGES = (_damage_constant, _damage_zero_row, _damage_cartan_row,
           _damage_form)


@pytest.mark.parametrize("desc", ["osp:1|2", "sl:2|1", "gl:2|1", "spo:2|3",
                                  "psl:2|2", "spo:4|1", "sl:3|2", "spo:4|3",
                                  "psl:3|3"])
def test_validate_matches_the_full_loop_on_damage(desc):
    rng = random.Random(desc)
    for damage in DAMAGES:
        for _ in range(4):
            g = build_algebra(desc)
            damage(g, rng)
            report = validate(g)
            assert report, (desc, damage.__name__)
            assert report == validate_reference(g), (desc, damage.__name__)


def test_bracket_bilinearity(algebras):
    g = algebras["spo:2|3"]
    x = {0: scalar(2), 3: scalar(Fraction(-1, 2))}
    y = {1: ONE, 4: scalar(3)}
    lhs = g.bracket(x, y)
    acc = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, s in g.bracket_basis(i, j).items():
                acc[k] = acc.get(k, scalar(0)) + xi * yj * s
    acc = {k: v for k, v in acc.items() if v}
    assert lhs == acc


def test_form_matches_pair(algebras):
    g = algebras["sl:2|1"]
    assert all(g.form.values())
    for i in range(g.dim):
        for j in range(g.dim):
            got = g.pair({i: ONE}, {j: ONE})
            assert got == g.form.get((i, j), ZERO)


# -- root systems --------------------------------------------------------


def halves(theta):
    return tuple(c / 2 for c in theta)


def test_roots_osp12(algebras):
    rd = root_decomposition(algebras["osp:1|2"])
    th = rd.theta
    assert set(rd.roots) == {
        th,
        tuple(-c for c in th),
        halves(th),
        tuple(-c for c in halves(th)),
    }
    assert rd.parity[th] == 0
    assert rd.parity[halves(th)] == 1
    assert rd.simple == [halves(th)]
    assert rd.positive == {th, halves(th)}


def test_roots_sl21(algebras):
    rd = root_decomposition(algebras["sl:2|1"])
    ev = [r for r in rd.roots if rd.parity[r] == 0]
    od = [r for r in rd.roots if rd.parity[r] == 1]
    assert len(ev) == 2 and len(od) == 4
    assert len(rd.simple) == 2
    assert rd.simple[-1] == rd.theta
    pair = weight_form(algebras["sl:2|1"])
    first = rd.simple[0]
    # odd simple root sitting in degree -1 relative to theta
    assert rd.parity[first] == 1
    assert 2 * pair(first, rd.theta) / pair(rd.theta, rd.theta) == -1


def test_roots_spo23(algebras):
    g = algebras["spo:2|3"]
    rd = root_decomposition(g)
    th = rd.theta
    half = halves(th)
    assert len(rd.roots) == 10
    assert sum(1 for r in rd.roots if rd.parity[r] == 0) == 4
    assert rd.parity[half] == 1
    # simple system ends with theta/2 in the odd case
    assert rd.simple[-1] == half
    assert len(rd.simple) == 2
    delta = tuple(a + b for a, b in zip(rd.simple[0], half))
    assert delta in rd.roots and rd.parity[delta] == 0
    assert len(rd.positive) == 5


def test_psl22_root_multiplicities(algebras):
    rd = root_decomposition(algebras["psl:2|2"])
    assert len(rd.roots) == 8
    for r in rd.roots:
        assert rd.multiplicity(r) == (2 if rd.parity[r] else 1)


def test_positive_system_closed(algebras):
    for desc in ("spo:2|3", "sl:2|3", "spo:4|2", "psl:2|2"):
        rd = root_decomposition(algebras[desc])
        roots = set(rd.roots)
        assert len(rd.positive) * 2 == len(rd.roots)
        for a in rd.positive:
            neg = tuple(-c for c in a)
            assert not rd.is_positive(neg)
            for b in rd.positive:
                s = tuple(x + y for x, y in zip(a, b))
                if s in roots:
                    assert rd.is_positive(s), (desc, a, b)


def test_simple_roots_indecomposable(algebras):
    for desc in ("sl:2|3", "spo:2|4", "spo:4|1"):
        rd = root_decomposition(algebras[desc])
        pos = sorted(rd.positive)
        for s in rd.simple:
            for a in pos:
                if a == s:
                    continue
                b = tuple(x - y for x, y in zip(s, a))
                assert not rd.is_positive(b), (desc, s, a)


def test_indecomposable_over_mixed_denominators():
    # ints and Fractions of several denominators, against the pairwise
    # differences taken on the tuples themselves; the members come back
    # as the very tuples passed in
    rng = random.Random(5)
    for _ in range(40):
        pos = {tuple(rng.choice((0, 1, 2, Fraction(1, 2), Fraction(2, 3),
                                 Fraction(-1, 6))) for _ in range(3))
               for _ in range(rng.randint(1, 12))} - {(0, 0, 0)}
        want = [w for w in sorted(pos)
                if not any(tuple(a - b for a, b in zip(w, v)) in pos
                           for v in pos)]
        got = _indecomposable(list(pos))
        assert got == want
        assert all(any(w is v for v in pos) for w in got)
    assert _indecomposable([]) == []


def test_minimal_candidates(algebras):
    g = algebras["osp:1|2"]
    rd = root_decomposition(g)
    cands = minimal_root_candidates(g, rd.spaces)
    assert rd.theta in cands
    assert tuple(-c for c in rd.theta) in cands
    assert len(cands) == 2
    with pytest.raises(PreconditionError):
        root_decomposition(g, theta=halves(rd.theta))


def test_theta_hint_respected(algebras):
    g = algebras["spo:2|3"]
    cands = minimal_root_candidates(g, root_decomposition(g).spaces)
    other = next(c for c in cands if c != root_decomposition(g).theta)
    rd = root_decomposition(g, theta=other)
    assert rd.theta == other
    assert rd.simple[-1] == halves(other)


def test_root_pass_matches_gram_oracle(algebras):
    # the coroot [e_theta, e_-theta] gives the same candidates, coroots and
    # degrees as pairing through the inverted Cartan Gram matrix
    for desc, g in algebras.items():
        rd = root_decomposition(g)
        cands = minimal_root_candidates(g, rd.spaces)
        want = gram_minimal_roots(g, _weights_of_basis(g))
        assert list(cands) == list(want) and cands == want, desc
        pair = weight_form(g)
        tt = pair(rd.theta, rd.theta)
        assert all(rd.degree[a] == 2 * pair(a, rd.theta) / tt
                   for a in rd.roots), desc


def test_root_pass_types():
    # the Gram-oracle equality cannot tell 1 from Fraction(1): roots are
    # Fraction tuples, degrees ints and coroot values Scalars
    for desc in ("gl:3|1", "psl:3|3", "spo:4|3"):
        g = build_algebra(desc)
        cands = minimal_root_candidates(g, root_decomposition(g).spaces)
        assert cands, desc
        for theta, (coroot, degree) in cands.items():
            assert type(theta) is tuple, desc
            assert all(type(c) is Fraction for c in theta), desc
            assert all(type(alpha) is tuple and all(
                type(c) is Fraction for c in alpha) for alpha in degree), desc
            assert all(type(d) is int for d in degree.values()), desc
            assert all(type(c) is Scalar for c in coroot.values()), desc


# -- classification ----------------------------------------------------------
#
# The g-natural labels are the minimal-grading table of Kac-Roan-Wakimoto,
# "Quantum reduction for affine superalgebras", CMP 241 (2003).  The
# grading holds g(0)# = g-natural as the h^e letters plus the dual root
# letters, so each label is checked through its super-dimension, and the
# completely reducible rows through the centre of g(0)#.

CLASSIFY = {
    "osp:1|2": ("odd", "trivial", True, 1, 0),
    "spo:2|3": ("odd", "so(3)", True, 3, 0),
    "sl:2|1": ("even", "gl(1)", False, 2, 0),
    "sl:2|3": ("even", "gl(3)", False, 6, 0),
    "psl:2|2": ("even", "sl(2)", True, 4, 0),
    "spo:4|1": ("odd", "spo(2|1)", True, 1, 2),
    "spo:2|4": ("even", "so(4)", True, 4, 0),
    "spo:4|2": ("even", "spo(2|2)", False, 2, 2),
}

CLASSIFY_LARGE = {
    "psl:3|3": ("even", "sl(1|3)", False, 6, 2),
    "gl:2|1": ("even", "gl(1)+gl(1)", False, 2, 0),
    "spo:2|2": ("even", "so(2)", False, 2, 0),
    "spo:2|5": ("odd", "so(5)", True, 5, 0),
    "gl:3|1": ("even", "gl(1|1)+gl(1)", False, 2, 2),
}


def label_superdim(label):
    """(even, odd) dimension of a sum of the classical labels in CLASSIFY."""
    even = odd = 0
    for part in label.split("+"):
        if part == "trivial":
            continue
        name, args = part[:-1].split("(")
        a, b = (int(x) for x in (args + "|0").split("|")[:2])
        if name in ("gl", "sl"):
            even += a * a + b * b - (name == "sl")
            odd += 2 * a * b
        elif name == "so":
            even += a * (a - 1) // 2
        elif name == "spo":
            # spo(2n|m): sp(2n) + so(m) even, C^2n x C^m odd
            even += a * (a + 1) // 2 + b * (b - 1) // 2
            odd += a * b
        else:
            raise ValueError(part)
    return even, odd


def centre_dim(gr):
    """Dimension of the centre of g(0)#, from the adapted brackets."""
    g = gr.algebra
    letters = (list(gr.hes) + list(gr.xs) + list(gr.xstars) + list(gr.ys)
               + list(gr.ystars))
    solver = LinearSolver()
    for z in letters:
        # ad z on g(0)#, flattened; z is central when its image is zero
        image = {(x, k): c for x in letters
                 for k, c in g.bracket({z: ONE}, {x: ONE}).items()}
        solver.add(z, image)
    return len(letters) - solver.rank


def check_classification(desc, g, row):
    ptype, label, reducible, r, s = row
    gr = grade(g)
    assert gr.parity_type == ptype, desc
    assert (gr.r, gr.s) == (r, s), desc
    assert label_superdim(label) == (len(gr.hes) + 2 * gr.w, 2 * gr.l), desc
    # the centre of a gl summand is its identity, that of so(2) is so(2)
    centre = centre_dim(gr)
    assert centre == sum(part.startswith("gl(") or part == "so(2)"
                         for part in label.split("+")), desc
    if reducible:
        assert centre == 0, desc


def test_classification(algebras):
    for desc, row in CLASSIFY.items():
        check_classification(desc, algebras[desc], row)


def test_classification_large():
    for desc, row in CLASSIFY_LARGE.items():
        check_classification(desc, build_algebra(desc), row)


def test_r_s_match_grading_dimensions(algebras):
    for desc, g in algebras.items():
        rd = root_decomposition(g)
        pair = weight_form(g)
        tt = pair(rd.theta, rd.theta)
        r = s = 0
        for root in rd.roots:
            if 2 * pair(root, rd.theta) / tt == -1:
                if rd.parity[root]:
                    r += rd.multiplicity(root)
                else:
                    s += rd.multiplicity(root)
        gr = grade(g)
        assert (gr.r, gr.s) == (r, s), desc
        assert gr.dims_per_degree()[-1] == (s, r), desc
        assert s % 2 == 0
        assert (r % 2 == 1) == (gr.parity_type == "odd")


# -- the Fraction adapters over LinearSolver --------------------------------


def _random_matrix(rng, nrows, ncols, rank):
    """Seeded rational matrix of rank at most ``rank``: a product of random
    nrows x rank and rank x ncols factors."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [[sum((row[t] * right[t][c] for t in range(rank)), Fraction(0))
             for c in range(ncols)] for row in left]


def _to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


def _from_sympy(values):
    return [Fraction(int(x.p), int(x.q)) for x in values]


def test_rational_kernel_matches_sympy():
    rng = random.Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rank = rng.randint(0, min(nrows, ncols))
        rows = _random_matrix(rng, nrows, ncols, rank)
        got = _rational_kernel([{i: row[c] for i, row in enumerate(rows)}
                                for c in range(ncols)])
        want = _to_sympy(rows).nullspace()
        # the same free-column basis, vector for vector
        assert ([[v.get(c, ZERO) for c in range(ncols)] for v in got]
                == [_from_sympy(w) for w in want])
        # nonzero Scalars only, in ascending column order
        assert all(type(x) is Scalar and x for v in got for x in v.values())
        assert all(list(v) == sorted(v) for v in got)
    basis = _rational_kernel([{}, {}, {}])
    assert basis == [{i: ONE} for i in range(3)]


def test_rational_inverse_matches_sympy():
    rng = random.Random(13)
    singular = regular = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        rank = n if rng.random() < 0.7 else rng.randint(0, n - 1)
        m = _random_matrix(rng, n, n, rank)
        if _to_sympy(m).det() == 0:
            singular += 1
            with pytest.raises(PreconditionError):
                _rational_inverse(m)
            continue
        regular += 1
        want = _to_sympy(m).inv()
        got = _rational_inverse(m)
        assert got == [_from_sympy(want.row(i)) for i in range(n)]
        assert all(type(x) is Fraction for row in got for x in row)
    assert singular and regular
