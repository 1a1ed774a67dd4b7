"""Minimal-root gradings: triples, pairings, subalgebras, weights."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from minwsuper.errors import PreconditionError
from minwsuper.grading import (
    MinimalGrading,
    WeightData,
    admissible_subalgebras,
    grade,
    neg_one_bases,
    weights_delta_rho,
)
from minwsuper.scalar import ONE, ZERO, scalar
from minwsuper import grading, superalgebra, wgen
from minwsuper.superalgebra import (LinearSolver, _rational_inverse,
                                    build_algebra, root_decomposition,
                                    validate)

from oracles import cartan_gram, compute_h0, rebase_reference, theta_height

NAMES = ["osp:1|2", "spo:2|3", "sl:2|1", "psl:2|2", "spo:2|4",
         "spo:4|1", "sl:2|3", "spo:4|2", "gl:2|1"]

ODD_NAMES = ["osp:1|2", "spo:2|3", "spo:4|1"]


@pytest.fixture(scope="module")
def gradings():
    return {name: grade(build_algebra(name)) for name in NAMES}


def _eq(x, y):
    keys = set(x) | set(y)
    return all(not (x.get(k, ZERO) - y.get(k, ZERO)) for k in keys)


def _smul(c, x):
    out = {}
    for i, v in x.items():
        t = scalar(c) * v
        if t:
            out[i] = t
    return out


def test_rebased_algebra_still_validates(gradings):
    for name in ["osp:1|2", "spo:2|3", "psl:2|2", "spo:4|2"]:
        assert validate(gradings[name].algebra) == []


def test_rebase_matches_one_solve_per_bracket(gradings):
    # combining the solved old letters gives the rows and form that
    # solving each bracket over the new basis gives, value for value, on
    # the default gradings and on every minimal root of spo:2|5 and psl:3|3
    extra = []
    for name in ("spo:2|5", "psl:3|3"):
        g = build_algebra(name)
        spaces = root_decomposition(g).spaces
        extra += [("%s %s" % (name, theta), grade(g, theta))
                  for theta in superalgebra.minimal_root_candidates(g, spaces)]
    assert len(extra) > 2
    for name, mg in [*gradings.items(), *extra]:
        alg = mg.algebra
        ref = rebase_reference(mg.base.with_form_scaled(mg.scale),
                               list(mg._letter_vectors), alg.cartan,
                               labels=alg.labels)
        assert alg.parity == ref.parity, name
        assert alg._bracket == ref._bracket, name
        assert alg.form == ref.form, name


def test_triple_normalization(gradings):
    for name, mg in gradings.items():
        alg = mg.algebra
        e, h, f = {mg.e: ONE}, {mg.hth: ONE}, {mg.f: ONE}
        assert _eq(alg.bracket(e, f), h), name
        assert alg.pair(e, f) == ONE, name
        assert alg.pair(h, h).as_fraction() == 2, name
        assert _eq(alg.bracket(h, e), _smul(2, e)), name
        assert _eq(alg.bracket(h, f), _smul(-2, f)), name


def test_degree_dims_osp12(gradings):
    mg = gradings["osp:1|2"]
    assert mg.dims_per_degree() == {
        -2: (1, 0), -1: (0, 1), 0: (1, 0), 1: (0, 1), 2: (1, 0)}
    assert (mg.s, mg.r, mg.parity_type) == (0, 1, "odd")


def test_degree_data_consistency(gradings):
    for name, mg in gradings.items():
        dims = mg.dims_per_degree()
        assert sum(a + b for a, b in dims.values()) == mg.base.dim
        assert dims[-1] == (mg.s, mg.r)
        assert dims[2] == (1, 0) and dims[-2] == (1, 0)
        assert dims[1] == dims[-1]
        assert mg.degrees[mg.e] == 2
        assert mg.f == mg.base.dim - 1 and mg.degrees[mg.f] == -2
        assert mg.degrees[mg.hth] == 0


def test_five_part_table_for_odd_type(gradings):
    for name in ODD_NAMES:
        mg = gradings[name]
        alg = mg.algebra
        e, h, f, E, F = {mg.e: ONE}, {mg.hth: ONE}, {mg.f: ONE}, mg.E, mg.F
        br = alg.bracket
        assert _eq(br(h, E), E), name
        assert _eq(br(h, F), _smul(-1, F)), name
        assert _eq(br(e, E), {}), name
        assert _eq(br(e, F), _smul(-1, E)), name
        assert _eq(br(f, E), _smul(-1, F)), name
        assert _eq(br(f, F), {}), name
        assert _eq(br(E, E), _smul(2, e)), name
        assert _eq(br(E, F), h), name
        assert _eq(br(F, F), _smul(-2, f)), name


def test_even_type_has_no_extra_pair(gradings):
    mg = gradings["sl:2|1"]
    assert mg.E is None and mg.F is None and mg.vmid is None


def test_midline_vector(gradings):
    # v_mid squares to f and spans the -theta/2 root space
    for name in ODD_NAMES:
        mg = gradings[name]
        vmid = {mg.vmid: ONE}
        assert _eq(mg.algebra.bracket(vmid, vmid), {mg.f: ONE}), name
        half = tuple(-c / 2 for c in mg.theta)
        assert mg.root_of_letter(mg.vmid) == half, name
    mg = gradings["spo:2|3"]
    assert mg.vmid == mg.vs[1]


def test_neg_one_duality(gradings):
    for name, mg in gradings.items():
        alg = mg.algebra
        nb = neg_one_bases(mg)
        z, zs = nb["z"], nb["zstar"]
        assert len(z) == mg.s + mg.r
        for a in range(len(z)):
            for b in range(len(z)):
                val = mg.chi(alg.bracket(zs[a], z[b]))
                if a == b:
                    assert val == ONE, (name, a)
                else:
                    assert not val, (name, a, b)


def test_neg_one_pairing_matrices(gradings):
    # <u_i, u_j> = -delta for i <= s/2, +delta above; <v_i, v_j> symmetric
    for name in ["spo:4|1", "spo:4|2", "spo:2|3", "psl:2|2"]:
        mg = gradings[name]
        alg = mg.algebra
        s, r = mg.s, mg.r
        for i in range(s):
            for j in range(s):
                val = mg.chi(alg.bracket({mg.us[i]: ONE}, {mg.us[j]: ONE}))
                if i + j == s - 1:
                    want = -1 if i < s // 2 else 1
                    assert val.as_fraction() == want, (name, i, j)
                else:
                    assert not val, (name, i, j)
        for i in range(r):
            for j in range(r):
                val = mg.chi(alg.bracket({mg.vs[i]: ONE}, {mg.vs[j]: ONE}))
                if i + j == r - 1:
                    assert val == ONE, (name, i, j)
                else:
                    assert not val, (name, i, j)


def test_admissible_spans(gradings):
    for name, mg in gradings.items():
        sub = admissible_subalgebras(mg)
        low = sum(1 for d in mg.degrees if d <= -2)
        want = low + (mg.s + mg.r - (mg.r % 2)) // 2
        assert len(sub["m"]) == want, name
        assert sub["n"] == (mg.f,)
        assert len(sub["nprime"]) == 1 + mg.s + mg.r
        assert len(sub["l"]) == mg.s + mg.r - (mg.r % 2)
        # m is a subalgebra and chi kills its brackets
        alg = mg.algebra
        solver = LinearSolver()
        for i in sub["m"]:
            solver.add(i, {i: ONE})
        for a in sub["m"]:
            for b in sub["m"]:
                out = alg.bracket({a: ONE}, {b: ONE})
                assert not mg.chi(out), (name, a, b)
                assert solver.solve(out) is not None, (name, a, b)


def test_osp12_small_subalgebras(gradings):
    mg = gradings["osp:1|2"]
    sub = admissible_subalgebras(mg)
    assert sub["m"] == (mg.f,)
    assert set(sub["mprime"]) == {mg.f, mg.vmid}
    assert sub["l"] == ()
    assert set(sub["nzero"]) == {mg.f}


def test_nzero_not_isotropic_when_r_is_3(gradings):
    # chi does not kill [n0, n0] here: v1 and v3 pair to f
    mg = gradings["spo:2|3"]
    out = mg.algebra.bracket({mg.vs[0]: ONE}, {mg.vs[2]: ONE})
    assert _eq(out, {mg.f: ONE})
    assert mg.chi(out) == ONE
    sub = admissible_subalgebras(mg)
    assert mg.vs[0] in sub["nzero"] and mg.vs[2] in sub["nzero"]


def test_centralizer_letters(gradings):
    for name, mg in gradings.items():
        alg = mg.algebra
        e = {mg.e: ONE}
        letters = mg.centralizer_letters()
        for i in letters:
            assert not alg.bracket({i: ONE}, e), (name, alg.labels[i])
        # compare against the brute-force kernel of ad e
        solver = LinearSolver()
        rank = 0
        for j in range(alg.dim):
            col = alg.bracket({j: ONE}, e)
            if col and solver.add(j, col):
                rank += 1
        assert len(letters) == alg.dim - rank, name


def test_chi_nzero_kernel(gradings):
    # on degrees >= -1 the chi([n0, .]) system cuts out exactly the
    # centralizer of e, extended by v_mid in the odd case
    from minwsuper.superalgebra import _rational_kernel

    for name in ["osp:1|2", "spo:2|3", "sl:2|1", "spo:4|1", "psl:2|2"]:
        mg = gradings[name]
        alg = mg.algebra
        sub = admissible_subalgebras(mg)
        space = [i for i in range(alg.dim) if mg.degrees[i] >= -1]
        ker = _rational_kernel([
            {t: mg.chi(alg.bracket({b: ONE}, {x: ONE}))
             for t, b in enumerate(sub["nzero"])} for x in space])
        want = len(mg.centralizer_letters()) + (mg.r % 2)
        assert len(ker) == want, name
        # membership: every claimed kernel vector really lies in it
        claimed = [{i: ONE} for i in mg.centralizer_letters()]
        if mg.parity_type == "odd":
            claimed.append({mg.vmid: ONE})
        for vec in claimed:
            for b in sub["nzero"]:
                assert not mg.chi(alg.bracket({b: ONE}, vec)), name


def test_sharp_projection(gradings):
    mg = gradings["spo:2|3"]
    alg = mg.algebra
    h = {mg.hth: ONE}
    assert mg.sharp(h) == {}
    for i in mg.hes + mg.xs + mg.xstars:
        x = {i: ONE}
        assert mg.sharp(x) == x
    mixed = {mg.hth: scalar(3), mg.hes[0]: ONE}
    out = mg.sharp(mixed)
    assert not alg.pair(h, out)


def test_h0_values(gradings):
    assert compute_h0(gradings["osp:1|2"]) == {}
    for name in ["spo:2|3", "spo:4|1"]:
        mg = gradings[name]
        h0 = compute_h0(mg)
        assert set(h0) <= set(mg.hes), name
        alg = mg.algebra
        e = {mg.e: ONE}
        assert not alg.bracket(h0, e), name
        assert not alg.bracket(h0, {mg.vmid: ONE}), name
        # simple roots other than theta/2 get height one
        for alpha in mg.rd.simple[:-1]:
            idx = mg.rd.spaces[alpha][0]
            pos = [i for i in range(alg.dim)
                   if mg.root_of_letter(i) == alpha]
            vec = {pos[0]: ONE}
            assert _eq(alg.bracket(h0, vec), vec), name


def test_h0_even_type_rejected(gradings):
    with pytest.raises(PreconditionError):
        compute_h0(gradings["sl:2|1"])


def test_heights_are_integers(gradings):
    for name in ODD_NAMES:
        mg = gradings[name]
        assert theta_height(mg, mg.theta) == 0
        for root in mg.rd.roots:
            theta_height(mg, root)


def test_minimal_root_hints():
    g = build_algebra("spo:2|3")
    theta = root_decomposition(g).theta
    other = tuple(-c for c in theta)
    assert root_decomposition(g, other).theta == other
    # a hint is a root tuple only: an index into the sorted root list, in
    # range or out of it, a float, a non-rational entry, a bool, a negative
    # index and float entries are all typed rejects
    roots = root_decomposition(g).roots
    for bad in (roots.index(other), len(roots), 1.5, (1, "a"), True, -1,
                (2.0, 0.0)):
        with pytest.raises(PreconditionError):
            root_decomposition(g, bad)
    mg = grade(g, other)
    assert mg.theta == other
    nb = neg_one_bases(mg)
    for a, (zv, zs) in enumerate(zip(nb["z"], nb["zstar"])):
        assert mg.chi(mg.algebra.bracket(zs, zv)) == ONE


def test_short_root_hint_rejected():
    # the length-one even root of the orthogonal block is not minimal
    g = build_algebra("spo:2|3")
    rd = root_decomposition(g)
    theta = rd.theta
    short = None
    for root in rd.roots:
        if not rd.parity[root] and root != theta and root != tuple(
                -c for c in theta):
            short = root
            break
    assert short is not None
    with pytest.raises(PreconditionError) as err:
        root_decomposition(g, short).theta
    assert "candidates" in str(err.value)
    # psl(1|1) has no even root at all, so no minimal root to grade by
    with pytest.raises(PreconditionError):
        grade(build_algebra("psl:1|1"))


def test_weight_fixtures(gradings):
    wd = weights_delta_rho(gradings["osp:1|2"])
    assert wd.letters == ()
    assert wd.delta_bar == () and wd.rho_bar == () and wd.rho_e0_bar == ()
    assert wd.pair((), ()) == 0

    mg = gradings["spo:2|3"]
    wd = weights_delta_rho(mg)
    # half the restriction of the single even positive root of degree zero
    beta = mg.root_of_letter(mg.xstars[0])
    half_beta = tuple(Fraction(v, 2) for v in mg.restrict_weight(beta))
    assert wd.rho_e0_bar == half_beta
    assert wd.delta_bar == (Fraction(-1, 2),)


def test_rho_restriction_identity(gradings):
    # rho_{e,0} and rho - 2 delta agree on h^e
    for name, mg in gradings.items():
        wd = weights_delta_rho(mg)
        lhs = wd.rho_e0_bar
        rhs = tuple(r - 2 * d for r, d in zip(wd.rho_bar, wd.delta_bar))
        assert lhs == rhs, name
        assert mg.restrict_weight(mg.theta) == wd.zero(), name


def test_letter_weights_match_per_root_sums(gradings):
    # the per-root formulas the letter sums replaced, kept as an oracle
    for name, mg in gradings.items():
        wd = weights_delta_rho(mg)
        rd, rest = mg.rd, mg.restrict_weight

        def total(terms):
            out = wd.zero()
            for root, c in terms:
                out = tuple(t + c * v for t, v in zip(out, rest(root)))
            return out

        for i, wt in enumerate(mg.letter_weights):
            root = mg.root_of_letter(i)
            assert wt == (wd.zero() if root is None else rest(root)), name
        half = Fraction(1, 2)
        low_u = [(mg.root_of_letter(i), -half) for i in mg.us[:mg.s // 2]]
        low_v = [(mg.root_of_letter(i), half) for i in mg.vs[:mg.r // 2]]
        assert wd.delta_bar == total(low_u + low_v), name
        assert wd.rho_bar == total(
            (root, (-half if rd.parity[root] else half)
             * rd.multiplicity(root)) for root in rd.positive), name
        ladder = [(root, (-1 if rd.parity[root] else 1)
                   * rd.multiplicity(root)) for root in rd.positive
                  if rd.degree[root] == 0]
        assert wd.rho_e0_bar == total(
            (root, c * half) for root, c in ladder), name
        if mg.parity_type == "odd":
            # the midline square's linear part, as four loops over roots
            net = total(ladder
                        + [(mg.root_of_letter(i), -1)
                           for i in mg.us[:mg.s // 2]]
                        + [(mg.root_of_letter(i), 1)
                           for i in mg.vs[:(mg.r - 1) // 2]])
            twice = tuple(2 * (a + b)
                          for a, b in zip(wd.rho_e0_bar, wd.delta_bar))
            assert net == twice, name


def test_letter_data_on_every_minimal_root():
    # the letter weights and degrees, read off the adapted Cartan, are the
    # restriction and the degree of each letter's root, on every grading
    for name in ("spo:2|3", "spo:2|5", "psl:3|3", "sl:3|2"):
        g = build_algebra(name)
        spaces = root_decomposition(g).spaces
        for theta in superalgebra.minimal_root_candidates(g, spaces):
            mg = grade(g, theta)
            zero = tuple(Fraction(0) for _ in mg.hes)
            for i in range(mg.algebra.dim):
                root = mg.root_of_letter(i)
                weight, degree = mg.letter_weights[i], mg.degrees[i]
                assert all(type(c) is Fraction for c in weight), (name, i)
                assert type(degree) is int, (name, i)
                if root is None:
                    assert i in mg.hes + (mg.hth,), (name, i)
                    assert (weight, degree) == (zero, 0), (name, i)
                else:
                    assert weight == mg.restrict_weight(root), (name, i)
                    assert degree == mg.rd.degree[root], (name, i)


def test_letter_queries_reject_bad_input(gradings):
    mg = grade(build_algebra("sl:3|2"))
    assert len(mg.base.cartan) == 4
    assert mg.restrict_weight(list(mg.theta)) == (0,) * len(mg.hes)
    for root in [(0,) * 6, (0.5, 0, 0, 0), (1,), None, "abcd"]:
        with pytest.raises(PreconditionError):
            mg.restrict_weight(root)
    mg = gradings["spo:2|3"]
    with pytest.raises(PreconditionError):
        mg.restrict_weight((True, False))
    assert mg.root_of_letter(mg.f) == tuple(-c for c in mg.theta)
    for i in (-1, mg.algebra.dim, 999, True, "x", 1.0, None):
        with pytest.raises(PreconditionError):
            mg.root_of_letter(i)


def test_delta_from_dual_roots(gradings):
    # the same weight computed through the dual gamma* system
    for name, mg in gradings.items():
        wd = weights_delta_rho(mg)
        zero = wd.zero()
        total = zero
        for i in range(mg.s // 2):
            gamma = mg.root_of_letter(mg.us[i])
            star = tuple(-t - c for t, c in zip(mg.theta, gamma))
            vals = mg.restrict_weight(star)
            total = tuple(t + Fraction(1, 2) * v for t, v in zip(total, vals))
        for i in range(mg.r // 2):
            gamma = mg.root_of_letter(mg.vs[i])
            star = tuple(-t - c for t, c in zip(mg.theta, gamma))
            vals = mg.restrict_weight(star)
            total = tuple(t - Fraction(1, 2) * v for t, v in zip(total, vals))
        assert total == wd.delta_bar, name


def test_pairing_invariant_under_basis_change(gradings):
    rng = random.Random(7)
    mg = gradings["sl:2|3"]
    wd = weights_delta_rho(mg)
    n = len(wd.letters)
    base_val = wd.pair(wd.delta_bar, wd.rho_bar)
    for _ in range(5):
        while True:
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                 for _ in range(n)]
            try:
                _rational_inverse(a)
                break
            except PreconditionError:
                continue
        def mat(v):
            return tuple(sum(a[i][j] * v[j] for j in range(n))
                         for i in range(n))
        gram2 = tuple(
            tuple(sum(a[i][p] * wd.gram[p][q] * a[j][q]
                      for p in range(n) for q in range(n))
                  for j in range(n))
            for i in range(n))
        wd2 = WeightData(wd.letters, mat(wd.delta_bar), mat(wd.rho_bar),
                         mat(wd.rho_e0_bar), gram2)
        assert wd2.pair(wd2.delta_bar, wd2.rho_bar) == base_val


def test_grading_report(gradings):
    rep = gradings["osp:1|2"].to_json_dict()
    assert rep["s"] == 0 and rep["r"] == 1
    assert rep["parity_type"] == "odd"
    assert rep["dims_per_degree"]["-1"] == [0, 1]
    assert rep["subalgebra_dims"]["m"] == 1
    assert rep["subalgebra_dims"]["mprime"] == 2
    import json
    assert json.dumps(rep, sort_keys=True)


# Regression freezes, not independent truths: sha256 digests of the base and
# adapted to_json_dict() as the dense-matrix build produced them.  The
# sparse matrix realization must reproduce every structure constant.
FROZEN_ALGEBRA_DIGESTS = {
    "osp:1|2": ("fdf043efa7d9e73ac35b3b68e386dfba77cab370faf5ad5a51f08ae49b861da0",
                "d8226a6ede6830106472c09431250917ad8b26dcafde5615e7e1949dbad850f8"),
    "sl:2|1": ("74ebb83212c05653fdf2cb88004a0b629d08b923330f56689ac94d61f2cb899f",
               "1dc8c794aaa4ba7b1e99e836ac5e6aa54e23bcfc7922d5b3160155c63b0e30c0"),
    "psl:2|2": ("f758d42055386108a525063e2ef59f44ee7d3e44758026dd48057a99182333d2",
                "b58038f89800b9935fe0894b986edddc6568df93c2464502e4095c22ecb75758"),
    "spo:4|3": ("cc2132a30e90fb91ae0c3327a52a5d027668707d9c6a30f387d57a6655319382",
                "78eab7c2735a53014716470d8aff2ceea9e9def621f9853dc4ef37b6642b3166"),
    "gl:3|1": ("e648e1012c64224c021ca74b8f0a6879878f906716e1c9c8dce0e0c78fcf669e",
               "dc98476678fcbbc0b922627919993687047c460cf0e87613230aad940b546e33"),
}


def _json_digest(alg):
    text = json.dumps(alg.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_structure_constants_frozen():
    for name, want in FROZEN_ALGEBRA_DIGESTS.items():
        g = build_algebra(name)
        got = (_json_digest(g), _json_digest(grade(g).algebra))
        assert got == want, name


def test_grade_ignores_the_form_scale():
    # the adapted form is normalized by (e, f) = 1, so grading a rescaled
    # form gives the same letters, structure constants, c0 and epsilon
    for name in ("sl:2|1", "spo:2|3", "psl:2|2", "spo:4|3"):
        g = build_algebra(name)
        base = grade(g)
        want = base.algebra.to_json_dict()
        odd = base.parity_type == "odd"
        c0 = wgen.compute_c0(base)
        eps = wgen.compute_epsilon(base) if odd else None
        for c in (2, 3, -1, Fraction(1, 3)):
            gr = grade(g.with_form_scaled(c))
            assert gr.algebra.to_json_dict() == want, (name, c)
            assert wgen.compute_c0(gr) == c0, (name, c)
            if odd:
                assert wgen.compute_epsilon(gr) == eps, (name, c)


def test_grade_makes_one_root_pass(monkeypatch):
    # the root datum owns the weights, the candidates with their coroots
    # and degrees, and no inverse of the Cartan Gram matrix; the letter
    # data are the weights of the adapted algebra, read once
    calls = {}
    for name in ("_weights_of_basis", "minimal_root_candidates"):
        original = getattr(superalgebra, name)

        def counted(g, *args, _name=name, _original=original, **kwargs):
            key = (_name, id(g))
            calls[key] = calls.get(key, 0) + 1
            return _original(g, *args, **kwargs)
        for module in (superalgebra, grading):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    inverted = []

    def recorded(matrix, _original=superalgebra._rational_inverse):
        inverted.append([list(row) for row in matrix])
        return _original(matrix)
    for module in (superalgebra, grading):
        monkeypatch.setattr(module, "_rational_inverse", recorded)
    g = build_algebra("spo:2|3")
    gr = grade(g)
    assert calls == {("_weights_of_basis", id(g)): 1,
                     ("_weights_of_basis", id(gr.algebra)): 1,
                     ("minimal_root_candidates", id(g)): 1}
    assert inverted

    # inversions of the Cartan Gram matrix, or of any multiple of it such
    # as the Gram matrix of the rescaled form
    gram = cartan_gram(g)
    k = len(gram)

    def multiple_of_gram(m):
        if len(m) != k or any(len(row) != k for row in m):
            return False
        a, b = next((a, b) for a in range(k) for b in range(k) if gram[a][b])
        c = m[a][b] / gram[a][b]
        return all(m[a][b] == c * gram[a][b]
                   for a in range(k) for b in range(k))
    assert sum(map(multiple_of_gram, inverted)) == 0
