"""Independent cross-checking engines used by the test suite.

Everything in here deliberately avoids the package's own algorithms:
the word rewriter works on whole words without memoization, scanning
for the last inversion instead of multiplying letter by letter, and
the dimension counts are plain generating-function walks, dominance
is checked against every root combination in a small box, and the
minimal-root test pairs roots through the inverted Cartan Gram matrix
where the package reads the coroot [e_theta, e_-theta].  The theta-height
chain at the end (simple-root coefficients, heights and the grading
element h0 of type odd) reads a grading in a way no package code needs;
it uses the package's exact solvers.  The raiser-square reference
spells out Theta(g_mid)^2 term by term, where the package reads it as
half the closed-form (g_mid, g_mid) entry; ``theta_cas_reference``
multiplies Theta_Cas from the lifts in U(g), where the package brackets
the one of ``wal.uge``; and the weight-zero pool holds the products the
projection pi is checked on.  ``c0_epsilon_law`` states c0 and epsilon
by laws in r - s and the kind of theta (``theta_kind``), where the
package averages the degree-1 pair expansion.
``pbw_coordinates_reference`` is the straightener as it was before the
leading-word peel: it echelons the top parts of every ordered monomial
of each Kazhdan degree and restricted weight and solves against them; a
caller may pass a dict that keeps those echelons between calls on one
workspace.  ``generic_functional_reference`` is the functional of
``root_decomposition`` on Fractions, as it was before it ran on ints over
one common denominator.  ``validate_reference`` is
``validate`` as it was before it certified the Jacobi identity from a
generating set: it checks every triple; ``rebase_reference`` solves
every bracket over the new basis, where the package combines the
solved old letters; ``generated_dimension`` closes a
span under the brackets of all its pairs rather than reaching basis
letters by brackets with a generating set, and
``assert_exact_recipes`` sums the recipes of that reaching with
``axpy``, where the package solves for them.
``mul_reference`` multiplies two elements word pair by word pair,
where the package folds the whole left factor through each right word,
each right word on its own.
``cartan_product_reference`` multiplies two ordered monomials of the
Cartan subquotient by the sign-and-odd-square rule that the subquotient
used before it multiplied through the presented algebra of its relation
table.  ``project_pi_reference`` is pi as it was before the monomial
images were kept: a weight pass on every call, then each monomial's
image multiplied afresh from the survivor slot images.
``lift_reference`` spells out the tail formulas of the letter lifts term
by term, the double sum of a degree-1 lift over products (z_a z_b) of
dual basis letters, where the package adds every correcting tail
sum_k z_k [z*_k, .], the inner sums of that double sum too, through one
helper.
``overlap_failures`` is the complete overlap check of the diamond lemma
on a presented algebra: every descending triple of generators, where the
sweep once drew only seeded ones.
"""

from fractions import Fraction

from minwsuper import wgen
from minwsuper.cartanw import (CartanWElement, _survivor_slots,
                               build_cartan_w, restricted_weight)
from minwsuper.envelope import render_element
from minwsuper.errors import ConsistencyError, PreconditionError
from minwsuper.scalar import HALF, ONE, ZERO, acc, axpy, scalar
from minwsuper.superalgebra import (LieSuperalgebra, LinearSolver,
                                   _diagonal_coordinates, _rational_inverse,
                                   parse_descriptor)
from minwsuper.wgen import w_multiply


def free_normal_form(word, coeff, order, bracket, parity):
    """Straighten ``coeff * x_w1 x_w2 ...`` into sorted PBW monomials.

    ``order`` maps a basis index to its position in the PBW order,
    ``bracket(i, j)`` returns {k: Scalar} for [x_i, x_j], ``parity(i)``
    gives 0 or 1.  Returns {sorted_word: Scalar}.  Rewrites the *last*
    out-of-order pair first, one word at a time, without caching.
    """
    result = {}
    stack = [(tuple(word), scalar(coeff))]
    while stack:
        w, c = stack.pop()
        if not c:
            continue
        spot = -1
        for i in range(len(w) - 2, -1, -1):
            a, b = w[i], w[i + 1]
            if order[a] > order[b] or (a == b and parity(a)):
                spot = i
                break
        if spot < 0:
            key = tuple(w)
            acc = result.get(key, ZERO) + c
            if acc:
                result[key] = acc
            else:
                result.pop(key, None)
            continue
        a, b = w[spot], w[spot + 1]
        head, tail = w[:spot], w[spot + 2:]
        br = bracket(a, b)
        if a == b:
            # odd square: x x = [x, x] / 2
            for k, v in br.items():
                stack.append((head + (k,) + tail, c * v * HALF))
        else:
            sign = -ONE if parity(a) and parity(b) else ONE
            stack.append((head + (b, a) + tail, c * sign))
            for k, v in br.items():
                stack.append((head + (k,) + tail, c * v))
    return result


def count_bounded_monomials(weights, odd_flags, cap):
    """Number of exponent vectors with sum(a_i * w_i) <= cap.

    Odd letters are capped at exponent 1.  Weights must be positive
    integers; ``cap`` a nonnegative integer.
    """
    table = {0: 1}
    for w, odd in zip(weights, odd_flags):
        nxt = {}
        for used, ways in table.items():
            top = 1 if odd else (cap - used) // w
            for a in range(0, top + 1):
                tot = used + a * w
                if tot <= cap:
                    nxt[tot] = nxt.get(tot, 0) + ways
        table = nxt
    return sum(table.values())


def sympy_equals(value, expr):
    """Compare a Scalar against a sympy expression, radical by radical."""
    import sympy

    total = sympy.Integer(0)
    for key, coeff in value._terms.items():
        total += (sympy.Rational(coeff.numerator, coeff.denominator)
                  * sympy.sqrt(sympy.Integer(key)))
    # exact: equal only when sympy reduces the difference to 0
    return sympy.expand(sympy.radsimp(total - expr)) == 0


def root_combinations(positive, top):
    """Every distinct sum of the weight tuples in ``positive`` with
    coefficients 0..top each, found by enumeration, with no height
    function: a set of Fraction tuples, the zero tuple included."""
    sums = {tuple(Fraction(0) for _ in positive[0])} if positive else set()
    for alpha in positive:
        sums = {tuple(s + n * a for s, a in zip(base, alpha))
                for base in sums for n in range(top + 1)}
    return sums


def cartan_gram(g):
    """Gram matrix of the form restricted to the Cartan basis (Fractions)."""
    idx = g.cartan
    return [[g.form.get((a, b), ZERO).as_fraction() for b in idx] for a in idx]


def weight_form(g):
    """The induced pairing on weight vectors, (a, b) = a^T Gc^{-1} b."""
    inv = _rational_inverse(cartan_gram(g))

    def pair(a, b):
        return sum(ai * sum(r * bj for r, bj in zip(row, b))
                   for ai, row in zip(a, inv))
    return pair


def gram_minimal_roots(g, weights):
    """Even roots theta with integral short spectrum and dim g(2) = 1,
    found through the inverse Gc^{-1} of the Cartan Gram matrix.

    Same shape as ``minimal_root_candidates``: theta -> (coroot, degree),
    sorted by theta, where the coroot is 2 Gc^{-1} theta / (theta, theta)
    over the Cartan letters and alpha has degree
    2 (alpha, theta) / (theta, theta).
    """
    inv = _rational_inverse(cartan_gram(g))
    zero = tuple(Fraction(0) for _ in g.cartan)
    seen = {}
    for i in range(g.dim):
        if weights[i] != zero:
            seen.setdefault(weights[i], []).append(i)
    out = {}
    for theta, idxs in sorted(seen.items()):
        if any(g.parity[i] for i in idxs):
            continue
        dual = [sum(r * tj for r, tj in zip(row, theta)) for row in inv]
        tt = sum(ti * di for ti, di in zip(theta, dual))
        if not tt:
            continue
        degree = {alpha: 2 * sum(ai * di for ai, di in zip(alpha, dual)) / tt
                  for alpha in seen}
        if any(d.denominator != 1 or abs(d) > 2 for d in degree.values()):
            continue
        if sum(len(seen[a]) for a, d in degree.items() if d == 2) != 1:
            continue
        coroot = {c: scalar(2 * d / tt) for c, d in zip(g.cartan, dual) if d}
        out[theta] = (coroot, degree)
    return out


def simple_inverse(grading):
    """Inverse of the matrix whose columns are the simple roots."""
    simples = grading.rd.simple
    k = len(simples)
    return _rational_inverse(
        [[Fraction(simples[i][j]) for i in range(k)] for j in range(k)])


def simple_coefficients(grading, root):
    """Expansion of a root over the simple system."""
    inverse = simple_inverse(grading)
    if len(root) != len(inverse):
        raise ConsistencyError("root length mismatch")
    return [sum(r * Fraction(c) for r, c in zip(row, root))
            for row in inverse]


def theta_height(grading, root):
    """Sum of simple coefficients, the theta/2 slot excluded."""
    n = simple_coefficients(grading, root)
    ht = sum(n[:-1])
    if ht.denominator != 1:
        raise ConsistencyError("non-integral height at %s" % (root,))
    return int(ht)


def compute_h0(grading):
    """The unique h0 in h^e with [h0, e_alpha] = ht_theta(alpha) e_alpha.

    Only defined for parity type odd, where theta/2 is the last simple
    root; its coefficient is dropped from the height.
    """
    if grading.parity_type != "odd":
        raise PreconditionError("h0 is only defined for parity type odd")
    g, rd = grading.base, grading.rd
    cartan = list(g.cartan)
    # (alpha_j, x) = 1 for all but the last simple root and 0 for it; the
    # matrix with the simple roots as rows is the transpose of the inverted one
    inverse = simple_inverse(grading)
    sol = [sum(row[i] for row in inverse[:-1]) for i in range(len(cartan))]
    base_vec = {cartan[i]: scalar(c) for i, c in enumerate(sol) if c}
    if theta_height(grading, rd.theta) != 0:
        raise ConsistencyError("theta is not twice the last simple root")

    solver = LinearSolver()
    for j in list(grading.hes) + [grading.hth]:
        solver.add(j, grading._letter_vectors[j])
    combo = solver.solve(base_vec)
    if combo is None:
        raise ConsistencyError("h0 escaped the Cartan")
    h0 = {i: c for i, c in combo.items() if c}
    if h0.get(grading.hth):
        raise ConsistencyError("h0 has a component along h_theta")

    alg = grading.algebra
    for i in range(alg.dim):
        root = grading.root_of_letter(i)
        if root is None:
            continue
        want = theta_height(grading, root)
        got = alg.bracket(h0, {i: ONE})
        if got != ({i: scalar(want)} if want else {}):
            raise ConsistencyError("h0 eigenvalue check failed at %d" % i)
    return h0


def raiser_square_reference(wal):
    """Theta(g_mid)^2 by the explicit formula: -C/4 + c0/4, a quarter of
    the h^e Casimir over the inverse Gram matrix, half of each ladder
    product Theta_x Theta_x* and Theta_y Theta_y*, minus the products
    Theta(#[g_mid, z_k]) Theta(#[z*_k, g_mid]) over the first half of
    each dual basis, and a quarter of Theta of the dual of
    2 (rho_e0 + delta).  The package reads the square as half the
    closed-form (g_mid, g_mid) entry instead."""
    gr, g, wd = wal.grading, wal.algebra, wal.weight_data
    quarter = scalar(Fraction(1, 4))
    out = {}
    axpy(out, -quarter, wgen.casimir_C(gr).value)
    acc(out, (), quarter * wal.c0)
    for a, row in zip(wd.letters, wd.inverse):
        for b, c in zip(wd.letters, row):
            if c:
                axpy(out, quarter * c,
                     wal.mul_raw(wal.theta_letter(a).value,
                                 wal.theta_letter(b).value))
    ladders = list(zip(gr.xs, gr.xstars)) + list(zip(gr.ys, gr.ystars))
    for x, xs in ladders:
        axpy(out, HALF, wal.mul_raw(wal.theta_letter(x).value,
                                    wal.theta_letter(xs).value))
    gmid = {gr.gmid: ONE}
    for k in [*range(gr.s // 2), *range(gr.s, gr.s + gr.r // 2)]:
        left = gr.sharp(g.bracket(gmid, wal.nb["z"][k]))
        right = gr.sharp(g.bracket(wal.nb["zstar"][k], gmid))
        if left and right:
            axpy(out, -ONE, wal.mul_raw(wgen.theta_v(gr, left).value,
                                        wgen.theta_v(gr, right).value))
    net = tuple(2 * (a + b) for a, b in zip(wd.rho_e0_bar, wd.delta_bar))
    if any(net):
        axpy(out, quarter, wgen.theta_v(gr, wal.dual_cartan(net)).value)
    return out


def theta_kind(descriptor, grading):
    """Where theta lies: "gl" in a gl block (gl, sl, psl), and "sp" in
    sp(2n) or "so" in so(m) of spo(2n|m) = osp(m|2n).  On spo(2n|m) theta
    lies in sp(2n) exactly when one of its first n Cartan coordinates is
    nonzero; r and s alone do not tell the kind, as the sp(2) and so(4)
    roots of spo:2|4 share them."""
    family, (p, _) = parse_descriptor(descriptor)
    if family != "spo":
        return "gl"
    return "sp" if any(grading.theta[:p // 2]) else "so"


def c0_epsilon_law(descriptor, grading):
    """(c0, epsilon) of ``grading`` by laws fitted on every minimal-root
    grading of the ladder, not derived, with x = r - s and the kind of
    ``theta_kind``: c0 = (3x - 4)/8 for "gl", (5x - 6)/16 for "sp" and
    x/2 for "so"; epsilon = x^2/16 in type odd, None in type even."""
    x = grading.r - grading.s
    c0 = {"gl": Fraction(3 * x - 4, 8), "sp": Fraction(5 * x - 6, 16),
          "so": Fraction(x, 2)}[theta_kind(descriptor, grading)]
    if grading.parity_type != "odd":
        return c0, None
    return c0, Fraction(x * x, 16)


def theta_cas_reference(wal):
    """Theta_Cas in U(g): the sum of c Theta_a Theta_b over the
    workspace's ``_quadratic_pairs``, each product multiplied from the
    letter lifts, certified for the twisted adjoint action.  The package
    forms Theta_Cas only in ``wal.uge``."""
    value = {}
    for a, b, c in wal._quadratic_pairs():
        axpy(value, c, wal.mul_raw(wal.theta_letter(a).value,
                                   wal.theta_letter(b).value))
    return wal.certify(value, wal.sub["nprime"]).value


def casimir_vs_quadratic_reference(wal):
    """The report's casimir-vs-quadratic group read from U(g): the
    commutator of ``theta_cas_reference`` with the lift of every degree-0
    letter, each nonzero one a failure with its rendered residual."""
    cas, labels = theta_cas_reference(wal), wal.algebra.labels
    cases = [("[Cas,%s]" % labels[a],
              wal.comm_raw(cas, wal.theta_letter(a).value))
             for a in wal.ge0_letters]
    return {"id": "casimir-vs-quadratic", "cases": len(cases), "failures": [
        {"case": label, "residual": render_element(labels, residual)}
        for label, residual in cases if residual]}


def weight_zero_pool(wal):
    """The weight-zero generators, and the products a b of generators of
    opposite nonzero restricted weight: the products the projection pi is
    tested on."""
    gens = [g.element for g in wal.generators]
    pool = []
    for a in gens:
        wa = restricted_weight(a)
        if not any(wa):
            pool.append(a)
            continue
        for b in gens:
            wb = restricted_weight(b)
            if all(x + y == 0 for x, y in zip(wa, wb)):
                pool.append(w_multiply(a, b))
    return pool


def generated_dimension(g, letters):
    """Dimension of the subalgebra that ``letters`` generate under the
    stored bracket: the span of the letters, enlarged by the bracket of
    every pair of its spanning vectors until it is closed."""
    solver = LinearSolver()
    span = []
    for x in letters:
        if solver.add(len(span), {x: ONE}):
            span.append({x: ONE})
    old = new = 0
    while new < len(span) < g.dim:
        # the pairs with a vector that entered in the last round
        old, new = new, len(span)
        for a in range(new):
            for b in range(old if a < old else 0, new):
                z = g.bracket(span[a], span[b])
                if solver.add(len(span), z):
                    span.append(z)
    return solver.rank



def assert_exact_recipes(todo, seeds, entry, reach):
    """Assert that ``reach``, the (X, order, recipes) of
    ``superalgebra._reach`` over ``todo`` from ``seeds``, is exact, with
    no solver: ``order`` holds every member of ``todo`` once, X starts
    with the seeds and lies in ``order``, every letter outside X has a
    recipe, and each recipe, summed with ``axpy`` as
    sum mu entry(x, r) + sum nu e_s, is e_y and reads only x, s in X and
    r reached before y.  ``entry(x, r)`` reads the bracket over letters
    straight from the caller's table."""
    letters, order, recipes = reach
    assert sorted(order) == sorted(todo)
    assert len(set(order)) == len(order)
    assert letters[:len(seeds)] == list(seeds)
    assert set(letters) <= set(order)
    assert set(recipes) == set(order) - set(letters)
    rank = {y: t for t, y in enumerate(order)}
    for y, combo in recipes.items():
        got = {}
        for (x, r), c in combo.items():
            assert x in letters, (y, x)
            if r is None:
                acc(got, x, c)
            else:
                assert rank[r] < rank[y], (y, r)
                axpy(got, c, entry(x, r))
        assert got == {y: ONE}, y

def validate_reference(g):
    """The full-loop ``validate``: every Jacobi triple (i, j, k) is checked,
    with no generating set.  Returns a list of violation strings."""
    report = []
    dim = g.dim

    for i in range(dim):
        for j in range(dim):
            pij = (g.parity[i] + g.parity[j]) % 2
            br = g.bracket_basis(i, j)
            for k in br:
                if g.parity[k] != pij:
                    report.append("parity: [%d,%d] hits index %d" % (i, j, k))
            sign = -1 if (g.parity[i] and g.parity[j]) else 1
            rev = g.bracket_basis(j, i)
            for k in set(br) | set(rev):
                if br.get(k, ZERO) != -sign * rev.get(k, ZERO):
                    report.append("skew: [%d,%d] vs [%d,%d] at %d" % (i, j, j, i, k))

    # a triple with no stored bracket row satisfies the Jacobi identity
    # trivially (an empty stored row adds nothing to either side); the
    # loop order, and so the report order, is kept
    rows = g._bracket
    none = {}

    for i in range(dim):
        for j in range(dim):
            ij = (i, j) in rows
            for k in range(dim):
                if not (ij or (j, k) in rows or (i, k) in rows):
                    continue
                # [i, [j, k]] against [[i, j], k] + sgn [j, [i, k]]
                lhs = {}
                for t, v in rows.get((j, k), none).items():
                    axpy(lhs, v, rows.get((i, t), none))
                rhs = {}
                for t, v in rows.get((i, j), none).items():
                    axpy(rhs, v, rows.get((t, k), none))
                sgn = -ONE if (g.parity[i] and g.parity[j]) else ONE
                for t, v in rows.get((i, k), none).items():
                    axpy(rhs, sgn * v, rows.get((j, t), none))
                if lhs != rhs:
                    report.append("jacobi: (%d,%d,%d)" % (i, j, k))

    # only a stored entry or its transpose can break evenness or
    # supersymmetry; sorted, they keep the row-major report order
    form = g.form
    for i, j in sorted(set(form) | {(j, i) for i, j in form}):
        v = form.get((i, j), ZERO)
        if g.parity[i] != g.parity[j] and v:
            report.append("form not even at (%d,%d)" % (i, j))
        sign = -1 if (g.parity[i] and g.parity[j]) else 1
        if v != sign * form.get((j, i), ZERO):
            report.append("form not supersymmetric at (%d,%d)" % (i, j))

    # invariance per (i, j): the vector ([i,j], k) - (i, [j,k]) over k,
    # from the form rows and the bracket rows of j read by output index
    form_rows = {}
    for (i, j), v in form.items():
        form_rows.setdefault(i, {})[j] = v
    by_output = {}  # (j, t) -> {k: [j,k]_t}
    for (j, k), row in rows.items():
        for t, c in row.items():
            by_output.setdefault((j, t), {})[k] = c
    for i in range(dim):
        row_i = form_rows.get(i, none)
        for j in range(dim):
            diff = {}
            for t, c in rows.get((i, j), none).items():
                axpy(diff, c, form_rows.get(t, none))
            for t, f in row_i.items():
                axpy(diff, -f, by_output.get((j, t), none))
            if diff:
                report.append("form not invariant at (%d,%d,%d)"
                              % (i, j, min(diff)))

    solver = LinearSolver()
    for i in range(dim):
        solver.add(i, form_rows.get(i, none))
    if solver.rank != dim:
        report.append("form degenerate: rank %d of %d" % (solver.rank, dim))

    for a in g.cartan:
        for b in g.cartan:
            if g.bracket_basis(a, b):
                report.append("cartan not abelian at (%d,%d)" % (a, b))
    return report


def generic_functional_reference(g, roots, theta, degree):
    """Values of a functional vanishing on theta and nowhere else.

    Starts from strictly decreasing weights along the matrix diagonal
    (so the usual ordering of the standard basis functionals), then
    projects out the theta component along the coroot, whose value on a
    root is ``degree[root]`` (2 on theta).  Degenerate seeds get bumped.
    A root lies on the theta line exactly when 2 alpha = alpha(h) theta.
    """
    th = _diagonal_coordinates(g, theta)
    coords = {root: _diagonal_coordinates(g, root) for root in roots}
    d = len(th)
    power = 1
    while True:
        w = [Fraction((d - i) ** power) for i in range(d)]
        base = sum(wi * ci for wi, ci in zip(w, th))

        def value(root):
            e0 = sum(wi * ci for wi, ci in zip(w, coords[root]))
            return e0 - base * Fraction(degree[root], 2)

        eta = {root: value(root) for root in roots}
        if all(eta[r] for r in roots
               if any(2 * a != degree[r] * t for a, t in zip(r, theta))):
            return eta
        power += 1


def rebase_reference(g, new_basis, new_cartan, labels=None):
    """``LieSuperalgebra.rebase`` as it was before it inverted the change
    of basis once: one solve over the new basis per nonzero bracket."""
    n = len(new_basis)
    solver = LinearSolver()
    parity = []
    for t, vec in enumerate(new_basis):
        parity.append(g.element_parity(vec))
        if not solver.add(t, vec):
            raise PreconditionError("rebase vectors are dependent at %d" % t)
    bracket = {}
    for i in range(n):
        for j in range(n):
            z = g.bracket(new_basis[i], new_basis[j])
            if not z:
                continue
            coords = solver.solve(z)
            if coords is None:
                raise PreconditionError("rebase span is not closed under bracket")
            if coords:
                bracket[(i, j)] = coords
    form = {(i, j): v for i in range(n) for j in range(n)
            if (v := g.pair(new_basis[i], new_basis[j]))}
    labels = labels or ["b%d" % i for i in range(n)]
    return LieSuperalgebra(g.family, g.params, labels, parity, bracket, form,
                           new_cartan, g.display)


def monomials_of_weight(wal, target):
    """Every ordered-monomial exponent tuple of Kazhdan degree ``target``,
    odd generators at most once."""
    gens = wal.generators
    out = []

    def rec(k, rem, prefix):
        if rem == 0:
            out.append(tuple(prefix + [0] * (len(gens) - k)))
            return
        if k == len(gens):
            return
        top = rem // gens[k].weight
        if gens[k].parity:
            top = min(top, 1)
        for n in range(top, -1, -1):
            rec(k + 1, rem - n * gens[k].weight, prefix + [n])

    rec(0, target, [])
    return out


def pbw_coordinates_reference(wal, value, echelons=None):
    """Coordinates of a coset over the ordered monomials, one Kazhdan
    degree at a time: the top parts of the ordered monomials of the top
    degree and of the coset's restricted weight go into one echelon, the
    top part of the coset is solved against it, and the solved
    combination is subtracted.  The weights are sums of
    ``grading.letter_weights``, and a coset whose words have several
    weights raises ``PreconditionError``.  ``echelons``, a dict owned by
    the caller for one workspace, keeps the echelon of each (degree,
    weight) for later calls."""
    coords = {}
    work = dict(value)
    echelons = {} if echelons is None else echelons
    letter_weights = wal.grading.letter_weights
    zero = tuple(Fraction(0) for _ in wal.grading.hes)

    def weight(counts):
        # the sum of n times the weight of letter i over the (i, n) pairs
        out = zero
        for i, n in counts:
            out = tuple(a + n * b for a, b in zip(out, letter_weights[i]))
        return out

    weights = {weight((i, 1) for i in w) for w in work}
    if len(weights) > 1:
        raise PreconditionError("the coset mixes the restricted weights %s"
                                % sorted(weights))
    wt = weights.pop() if weights else zero
    # C is the one generator without a letter, and it has weight zero
    letters = [gen.letter for gen in wal.generators]
    while work:
        d = wal.kazhdan_degree(work)
        solver = echelons.get((d, wt))
        if solver is None:
            solver = echelons[(d, wt)] = LinearSolver()
            for expo in monomials_of_weight(wal, d):
                if weight((i, n) for i, n in zip(letters, expo)
                          if n and i is not None) != wt:
                    continue
                top = {w: c for w, c in wal.monomial(expo).items()
                       if wal.word_weight(w) == d}
                if top:
                    solver.add(expo, top)
        combo = solver.solve(
            {w: c for w, c in work.items() if wal.word_weight(w) == d})
        if combo is None:
            raise ConsistencyError(
                "straightening failed at filtration degree %d" % d)
        for expo, c in combo.items():
            acc(coords, expo, c)
            axpy(work, -c, wal.monomial(expo))
    return coords


def commutator_reference(pbw, a, b):
    """The superbracket a b - (-1)^{|a||b|} b a, summed word pair by
    word pair: c wa wb - (-1)^{|wa||wb|} c wb wa for the coefficient c
    of each pair.  A pair in which every letter of wa supercommutes
    with every letter of wb contributes zero and is skipped; which
    letters supercommute is read from the bracket rows."""
    out = {}
    letters = range(len(pbw.parity))
    partners = {x: {y for y in letters if pbw._row(x, y)}
                for x in {x for wa in a for x in wa}}
    bs = [(wb, cb, pbw.word_parity(wb)) for wb, cb in b.items()]
    for wa, ca in a.items():
        pa = pbw.word_parity(wa)
        touched = set().union(*(partners[x] for x in wa))
        for wb, cb, pb in bs:
            if touched.isdisjoint(wb):
                continue
            c = ca * cb
            axpy(out, c, pbw._mul_word(wa, wb))
            axpy(out, c if pa and pb else -c, pbw._mul_word(wb, wa))
    return out


def overlap_failures(pbw, n):
    """The overlap check of the diamond lemma on a presented algebra
    ``pbw`` with generators 0, ..., n-1: for every triple k >= j >= i,
    (x_k x_j) x_i must equal x_k (x_j x_i).  Returns the number of
    triples checked and the list of those (k, j, i) that fail."""
    gen = [{(k,): ONE} for k in range(n)]
    mul = pbw.mul
    count, bad = 0, []
    for i in range(n):
        for j in range(i, n):
            ji = mul(gen[j], gen[i])
            for k in range(j, n):
                count += 1
                if mul(mul(gen[k], gen[j]), gen[i]) != mul(gen[k], ji):
                    bad.append((k, j, i))
    return count, bad


def mul_reference(pbw, a, b):
    """The product a b summed word pair by word pair: ca cb (wa wb) for
    each term ca wa of ``a`` and cb wb of ``b``, every word product
    straightened on its own."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            axpy(out, ca * cb, pbw._mul_word(wa, wb))
    return out


def cartan_product_reference(cw, ea, eb):
    """The straightened product of two ordered monomials of the Cartan
    subquotient ``cw``, as a dict over exponent tuples.  Even slots are
    central.  Moving an odd letter of ``eb`` left past a later odd letter
    of ``ea`` costs a sign, and an odd square x x is [x, x] / 2, read
    from the certified relation table, whose odd squares are central."""
    odd = [k for k, p in enumerate(cw.parities) if p]
    flips = sum(ea[k] * eb[j] for k in odd for j in odd if j < k)
    merged = tuple(a + b for a, b in zip(ea, eb))
    terms = [(merged, -ONE if flips % 2 else ONE)]
    for k in odd:
        if merged[k] == 2:
            square = cw.relations[(cw.names[k], cw.names[k])]
            terms = [(tuple(a + d - 2 * (j == k)
                            for j, (a, d) in enumerate(zip(expo, step))),
                      c * h * HALF)
                     for expo, c in terms for step, h in square.items()]
    out = {}
    for expo, c in terms:
        acc(out, expo, c)
    return out


def project_pi_reference(x):
    """pi of a weight-zero W-element with no memo: every monomial that
    touches a dropped slot vanishes, and each other one is the product of
    its survivor slot images, formed on every call."""
    cw = build_cartan_w(x.wal.grading)
    wt = restricted_weight(x)
    if any(wt):
        raise PreconditionError(
            "projection only applies at restricted weight zero; this "
            "element has weight %s" % (wt,))
    survivors = _survivor_slots(cw)
    keep = {slot for slot, _ in survivors}
    out = {}
    for expo, c in x._coordinates().items():
        if any(n and k not in keep for k, n in enumerate(expo)):
            continue
        term = cw.unit()
        for slot, image in survivors:
            for _ in range(expo[slot]):
                term = term * image
        axpy(out, c, term.coords)
    return CartanWElement(cw, out)


def lift_reference(wal, x):
    """The lift of ``x``, a vector of g of degree 0 or 1, by its tail
    formula written out: x - 1/2 sum_k z_k [z*_k, x] in degree 0, and in
    degree 1 x - sum_k z_k [z*_k, x] + 1/3 sum_{a,b} (z_a z_b)
    [z*_b, [z*_a, x]] - 2/3 [x, f], projected to the finite quotient."""
    g, pbw = wal.algebra, wal.pbw
    third = scalar(Fraction(1, 3))
    pairs = list(zip(wal.nb["z"], wal.nb["zstar"]))
    out = pbw.inject(x)
    if all(i in wal.ge0_letters for i in x):
        for z, zst in pairs:
            w = g.bracket(zst, x)
            if w:
                axpy(out, -HALF, pbw.mul(pbw.inject(z), pbw.inject(w)))
        return wal.project(out)
    for z, zst in pairs:
        zw = g.bracket(zst, x)
        if zw:
            axpy(out, -ONE, pbw.mul(pbw.inject(z), pbw.inject(zw)))
    for za, zsa in pairs:
        inner = g.bracket(zsa, x)
        if not inner:
            continue
        for zb, zsb in pairs:
            core = g.bracket(zsb, inner)
            if core:
                axpy(out, third, pbw.mul(
                    pbw.mul(pbw.inject(za), pbw.inject(zb)),
                    pbw.inject(core)))
    wf = g.bracket(x, {wal.grading.f: ONE})
    axpy(out, -(third + third), pbw.inject(wf))
    return wal.project(out)
