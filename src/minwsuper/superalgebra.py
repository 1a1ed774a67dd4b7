"""Matrix realizations of basic classical Lie superalgebras.

Supported families: gl(m|n) and sl(m|n) with m != n, psl(n|n), and
spo(2n|m) acting on C^(2n|m) (the same algebra as osp(m|2n); osp:1|2 is the
alias of spo:2|1).  Brackets and the supertrace form are always computed
from an explicit matrix basis rather than copied from tables.  Each
builder keeps every vector it builds: spo's kernel vectors are weight
vectors as they come (``_build_spo``), and psl leaves out the one sl
Cartan letter that the identity matrix makes redundant (``_finish``).
Every bracket table is filled one unordered pair i <= j at a time, [j, i]
by super-skew symmetry (Kac 1977); ``validate`` checks that symmetry, and
then checks the Jacobi identity on the pairs j <= k alone, since on a
super-skew table J(i, k, j) = -(-1)^{|j||k|} J(i, j, k).
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from operator import mul

from .errors import (ConsistencyError, PreconditionError,
                     UnsupportedFamilyError, check_type)
from .scalar import ONE, ZERO, acc, axpy, scalar


# ---------------------------------------------------------------------------
# exact linear algebra: one sparse echelon; the kernel reads sparse columns
# and gives sparse Scalar vectors, the inverse is a Fraction adapter
# ---------------------------------------------------------------------------


class LinearSolver:
    """Incremental exact row reduction over Scalar coefficients, sparse.

    Tracks a list of tagged vectors; solve() expresses a new vector in terms
    of the tags (or reports failure).  A vector is a dict of its nonzero
    entries, keyed by any mutually ordered keys.  Every row is reduced
    against the earlier ones and pivots on its smallest key, so one pass
    over the rows in insertion order clears each pivot for good.  This is
    the package's only elimination; the rational kernel and inverse below
    are adapters.
    """

    def __init__(self):
        self.rows = []  # (pivot key, normalized row dict, combo dict tag -> Scalar)

    def _reduce(self, vec):
        residual = {k: scalar(x) for k, x in vec.items() if x}
        expr = {}
        for pivot, row, rcombo in self.rows:
            c = residual.get(pivot)
            if c is None:
                continue
            axpy(residual, -c, row)
            axpy(expr, c, rcombo)
        return residual, expr

    def add(self, tag, vec):
        """Insert a tagged vector; returns False when dependent on earlier ones."""
        residual, expr = self._reduce(vec)
        if not residual:
            return False
        pivot = min(residual)
        pv = residual[pivot].inv()
        row = {k: x * pv for k, x in residual.items()}
        combo = {tag: pv}
        for t, s in expr.items():
            combo[t] = -s * pv
        self.rows.append((pivot, row, combo))
        return True

    def solve(self, vec):
        """Coordinates of vec over the inserted tags, or None if outside the span."""
        residual, expr = self._reduce(vec)
        if residual:
            return None
        return expr

    @property
    def rank(self):
        return len(self.rows)


def _rational_kernel(columns):
    """Basis of the right kernel of a rational matrix given by its
    columns, sparse dicts over mutually ordered row keys.  Each vector is
    a dict of its nonzero Scalars over the column positions, ascending.

    Columns enter one solver in order; each column that depends on the
    earlier ones gives e_c minus its unique expression over the independent
    ones, which is the RREF free-column basis, in the same order.
    """
    solver = LinearSolver()
    basis = []
    for c, column in enumerate(columns):
        if not solver.add(c, column):
            vec = {t: -x for t, x in sorted(solver.solve(column).items())}
            vec[c] = ONE
            basis.append(vec)
    return basis


def _rational_inverse(matrix):
    """Inverse of a square nonsingular rational matrix, as a list of rows:
    row j solves x * matrix = e_j over the rows of the matrix."""
    n = len(matrix)
    solver = LinearSolver()
    for i, row in enumerate(matrix):
        if not solver.add(i, dict(enumerate(row))):
            raise PreconditionError("matrix is singular at row %d" % i)
    inverse = []
    for j in range(n):
        combo = solver.solve({j: ONE})
        inverse.append([combo[i].as_fraction() if i in combo else Fraction(0)
                        for i in range(n)])
    return inverse


# ---------------------------------------------------------------------------
# sparse rational matrices: dicts {(row, col): Fraction} of nonzero entries;
# (row, col) keys order like the row-major flattened index, so LinearSolver
# pivots on them exactly as it would on the flattened matrix
# ---------------------------------------------------------------------------


def _mat_mul(x, y):
    rows = {}
    for (k, j), b in y.items():
        rows.setdefault(k, []).append((j, b))
    out = {}
    for (i, k), a in x.items():
        for j, b in rows.get(k, ()):
            acc(out, (i, j), a * b)
    return out


def _supertrace(m, even_dim):
    return sum((v if i < even_dim else -v for (i, j), v in m.items() if i == j),
               Fraction(0))


def _store_skew(bracket, i, j, row, odd):
    """[i, j] = row and [j, i] = -(-1)^{|i||j|} row, ``odd`` being |i||j|."""
    bracket[i, j] = row
    if j != i:
        bracket[j, i] = {k: v if odd else -v for k, v in row.items()}


# ---------------------------------------------------------------------------
# the algebra object
# ---------------------------------------------------------------------------


class LieSuperalgebra:
    """Finite-dimensional Lie superalgebra given by structure constants.

    Elements are sparse coordinate dicts {basis index: Scalar}.  The object
    is immutable after construction, both tables in (i, j) key order.
    """

    def __init__(self, family, params, labels, parity, bracket, form, cartan,
                 display=None):
        self.family = family
        self.params = tuple(params)
        self.labels = tuple(labels)
        self.parity = tuple(parity)
        self.dim = len(labels)
        self._bracket = dict(sorted(bracket.items()))  # (i, j) -> {k: Scalar}
        self.form = dict(sorted(form.items()))  # nonzero Scalars only
        self.cartan = tuple(cartan)
        self.display = display or "%s:%s" % (family, "|".join(map(str, params)))

    # -- basics ---------------------------------------------------------

    @property
    def dim_even(self):
        return self.parity.count(0)

    @property
    def dim_odd(self):
        return self.parity.count(1)

    def bracket_basis(self, i, j):
        return self._bracket.get((i, j), {})

    def bracket(self, x, y):
        """[x, y] for sparse coordinate dicts; bilinear, signs live in the table."""
        out = {}
        table = self._bracket
        for i, xi in x.items():
            for j, yj in y.items():
                row = table.get((i, j))
                if row:
                    axpy(out, xi * yj, row)
        return out

    def pair(self, x, y):
        """Invariant form (x, y)."""
        tot = ZERO
        form = self.form
        for i, xi in x.items():
            for j, yj in y.items():
                v = form.get((i, j))
                if v is not None:
                    tot = tot + xi * yj * v
        return tot

    def element_parity(self, x):
        """0 or 1 for homogeneous x, else None."""
        seen = {self.parity[i] for i in x}
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    def with_form_scaled(self, c):
        """The same algebra with the form times c; it owns its bracket rows."""
        c = scalar(c)
        if not c:
            raise PreconditionError("the form cannot be scaled by zero")
        form = {key: v * c for key, v in self.form.items()}
        bracket = {key: dict(row) for key, row in self._bracket.items()}
        return LieSuperalgebra(self.family, self.params, self.labels,
                               self.parity, bracket, form, self.cartan,
                               self.display)

    def rebase(self, new_basis, new_cartan, labels=None):
        """Rewrite the algebra on a new ordered basis (list of coordinate dicts).

        Every new vector must be parity homogeneous, and the n vectors
        independent.  Each old letter is solved over the new basis once:
        those n rows are the inverse of the change of basis, and the
        coordinates of a bracket are the same combination of them as the
        bracket is of the old letters.  Brackets and the form are exact,
        each pair i <= j once and (j, i) by the supersign, for a super-skew
        algebra with a supersymmetric form (``validate`` checks both), and
        only the pairs whose supports meet a stored bracket row or form
        entry are formed: every other pair is empty by bilinearity.
        """
        n = len(new_basis)
        if n != self.dim:
            raise PreconditionError("rebase needs a full basis")
        solver = LinearSolver()
        parity = []
        for t, vec in enumerate(new_basis):
            p = self.element_parity(vec)
            if p is None:
                raise PreconditionError("rebase vector %d is parity mixed" % t)
            parity.append(p)
            if not solver.add(t, vec):
                raise PreconditionError("rebase vectors are dependent at %d" % t)
        inverse = [solver.solve({a: ONE}) for a in range(n)]
        meets, holders = {}, {}
        for a, b in [*self._bracket, *self.form]:
            meets.setdefault(a, set()).add(b)
        for j, y in enumerate(new_basis):
            for b in y:
                holders.setdefault(b, []).append(j)
        bracket, form = {}, {}
        for i, x in enumerate(new_basis):
            for j in sorted({j for a in x for b in meets.get(a, ())
                             for j in holders.get(b, ()) if j >= i}):
                y, odd = new_basis[j], parity[i] and parity[j]
                coords = {}
                for a, c in self.bracket(x, y).items():
                    axpy(coords, c, inverse[a])
                if coords:
                    _store_skew(bracket, i, j, dict(sorted(coords.items())), odd)
                if v := self.pair(x, y):
                    form[j, i] = -v if odd else v
                    form[i, j] = v
        labels = labels or ["b%d" % i for i in range(n)]
        return LieSuperalgebra(self.family, self.params, labels, parity,
                               bracket, form, new_cartan, self.display)

    def to_json_dict(self):
        bracket_rows = []
        for (i, j) in sorted(self._bracket):
            for k in sorted(self._bracket[(i, j)]):
                bracket_rows.append([i, j, k, self._bracket[(i, j)][k].render()])
        form_rows = [[i, j, v.render()]
                     for (i, j), v in sorted(self.form.items())]
        return {
            "family": self.family,
            "params": list(self.params),
            "basis": [
                {"index": i, "parity": self.parity[i], "label": self.labels[i]}
                for i in range(self.dim)
            ],
            "cartan": list(self.cartan),
            "bracket": bracket_rows,
            "form": form_rows,
        }

    def __repr__(self):
        return "<LieSuperalgebra %s dim %d|%d>" % (
            self.display, self.dim_even, self.dim_odd)


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def parse_descriptor(text):
    """Parse "family:p|q" into (family, (p, q)); osp swaps into spo form.

    This is the only validation of a descriptor: the builders trust it.
    """
    if not isinstance(text, str) or ":" not in text:
        raise UnsupportedFamilyError("bad algebra descriptor %r" % (text,))
    fam, _, rest = text.partition(":")
    params = rest.split("|")
    # ASCII digits only; int() also reads "1_0", "+2" and non-ASCII digits
    if not all(p.isascii() and p.isdigit() for p in params):
        raise UnsupportedFamilyError("bad parameters in %r" % text)
    params = tuple(map(int, params))
    # the family as written: no case folding, no spaces
    if fam == "osp":
        # osp(m|2n) preserves the same form as spo(2n|m)
        if len(params) != 2 or params[1] % 2:
            raise UnsupportedFamilyError("osp needs parameters m|2n")
        fam, params = "spo", (params[1], params[0])
    if fam not in ("gl", "sl", "psl", "spo"):
        raise UnsupportedFamilyError("family %r is not supported" % fam)
    if len(params) != 2:
        raise UnsupportedFamilyError("%s needs exactly two parameters" % fam)
    if min(params) < 1:
        raise UnsupportedFamilyError(
            "%s:%d|%d: both blocks must be nonempty" % ((fam,) + params))
    if fam in ("gl", "sl") and params[0] == params[1]:
        raise UnsupportedFamilyError(
            "%s(n|n) has a one dimensional center; use psl:%d|%d"
            % (fam, params[0], params[1]))
    if fam == "psl" and params[0] != params[1]:
        raise UnsupportedFamilyError("psl needs equal parameters")
    if fam == "spo" and params[0] % 2:
        raise UnsupportedFamilyError("spo needs an even first parameter")
    return fam, params


def build_algebra(descriptor):
    fam, params = parse_descriptor(descriptor)
    if fam == "spo":
        return _build_spo(*params)
    return _build_gl_family(fam, *params)


def _build_gl_family(kind, m, n):
    d = m + n
    par = lambda a: 0 if a < m else 1

    mats, parity, labels = [], [], []
    if kind == "gl":
        for a in range(d):
            mats.append({(a, a): 1})
            parity.append(0)
            labels.append("H%d" % (a + 1))
        cartan = list(range(d))
    else:
        # coroot-style supertraceless diagonal basis; psl leaves out
        # H_{2n-1} (see _finish)
        rank = d - 2 if kind == "psl" else d - 1
        for a in range(rank):
            mats.append({(a, a): 1, (a + 1, a + 1): 1 if a == m - 1 else -1})
            parity.append(0)
            labels.append("H%d" % (a + 1))
        cartan = list(range(rank))
    for a in range(d):
        for b in range(d):
            if a != b:
                mats.append({(a, b): 1})
                parity.append((par(a) + par(b)) % 2)
                labels.append("E%d,%d" % (a + 1, b + 1))

    # psl is the quotient by the identity matrix
    eliminators = [{(a, a): 1 for a in range(d)}] if kind == "psl" else []
    return _finish(kind, (m, n), mats, parity, labels, cartan, m, eliminators)


def _spo_form(twon, m):
    n = twon // 2
    d = twon + m
    phi = {(i, twon - 1 - i): 1 if i < n else -1 for i in range(twon)}
    phi.update({(twon + j, d - 1 - j): 1 for j in range(m)})
    return phi


def _build_spo(twon, m):
    """spo(2n|m) as the matrices X with B(Xu, v) + (-1)^{|X||u|} B(u, Xv)
    = 0, solved entrywise for each parity of X.

    Each position (c, a) gives its column of the condition as a dict of
    the stored entries: X[c, a] enters the condition at (a, c') with
    B(c, c') and at (c', a) with (-1)^{|X||c'|} B(c', c), with i' the
    index that B pairs with i.  Keyed by (row, col), the conditions pivot
    as the dense rows would.  The Cartan weight of the condition at
    (a, b) is -eps_a - eps_b, so the condition matrix is block-diagonal by
    weight (Kac 1977), every kernel vector of ``_rational_kernel`` has
    one weight, read off any of its entries, and those of nonzero weight
    are independent of the Cartan.  The weight-zero ones span the
    Cartan, which is written out instead, in the eps/delta order.
    """
    n = twon // 2
    d = twon + m
    par = lambda a: 0 if a < twon else 1
    phi = _spo_form(twon, m)

    cartan_mats = [{(i, i): 1, (twon - 1 - i, twon - 1 - i): -1}
                   for i in range(n)]
    cartan_mats += [{(twon + j, twon + j): 1, (d - 1 - j, d - 1 - j): -1}
                    for j in range(m // 2)]
    k_c = len(cartan_mats)

    def weight_of(a, b):
        return tuple(hm.get((a, a), 0) - hm.get((b, b), 0) for hm in cartan_mats)

    partner = {i: j for i, j in phi}

    roots = []  # (weight, parity, kernel position, matrix)
    for px in (0, 1):
        positions = [(c, a) for c in range(d) for a in range(d)
                     if (par(c) + par(a)) % 2 == px]
        columns = []
        for c, a in positions:
            p = partner[c]
            column = {(a, p): phi[c, p]}
            acc(column, (p, a), -phi[p, c] if px and par(p) else phi[p, c])
            columns.append(column)
        for t, vec in enumerate(_rational_kernel(columns)):
            mat = {positions[s]: v for s, v in vec.items()}
            wt = weight_of(*next(iter(mat)))
            if any(wt):
                roots.append((wt, px, t, mat))
    roots.sort(key=lambda root: root[:3])

    mats = cartan_mats + [mat for *_, mat in roots]
    parity = [0] * k_c + [px for _, px, _, _ in roots]
    labels = (["H%d" % (i + 1) for i in range(k_c)]
              + ["X(%s)" % ",".join(map(str, wt)) for wt, *_ in roots])
    return _finish("spo", (twon, m), mats, parity, labels, list(range(k_c)), twon, [])


def _finish(family, params, mats, parity, labels, cartan, even_dim, eliminators):
    """Compute structure constants and form from the matrix basis,
    taken modulo the span of ``eliminators``, one pair i <= j at a time:
    X_i X_j and X_j X_i give [i, j] by one solve, [j, i] by ``_store_skew``
    and both form entries as supertraces.

    psl(n|n) is sl(n|n) modulo the identity matrix.  Over the sl Cartan
    letters the identity has coefficient -1 on H_{2n-1} (+1 when n = 1),
    the largest letter it touches, so the sl basis without H_{2n-1} is
    a basis modulo the identity.
    """
    solver = LinearSolver()
    for t, em in enumerate(eliminators):
        solver.add(("elim", t), em)
    for i, bm in enumerate(mats):
        if not solver.add(i, bm):
            raise PreconditionError("matrix basis is dependent at %d" % i)
    dim = len(mats)
    bracket, form = {}, {}
    for i in range(dim):
        for j in range(i, dim):
            odd = parity[i] and parity[j]
            ij = _mat_mul(mats[i], mats[j])
            ji = ij if j == i else _mat_mul(mats[j], mats[i])
            for key, m in (((i, j), ij), ((j, i), ji)):
                if v := _supertrace(m, even_dim):
                    form[key] = scalar(v)
            z = dict(ij)
            axpy(z, 1 if odd else -1, ji)
            if not z:
                continue
            sol = solver.solve(z)
            if sol is None:
                raise PreconditionError("target outside the matrix span")
            co = {k: v for k, v in sol.items() if isinstance(k, int)}
            if co:
                _store_skew(bracket, i, j, dict(sorted(co.items())), odd)
    return LieSuperalgebra(family, params, labels, parity, bracket, form, cartan)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _seeds(weights):
    """The keys of ``weights``, a dict of weight tuples, whose weight is
    plus or minus an indecomposable lex-positive one, in key order."""
    simple = set(_indecomposable(w for w in weights.values()
                                 if w > (0,) * len(w)))
    return [k for k, w in weights.items()
            if w in simple or tuple(-c for c in w) in simple]


def _seed_letters(g):
    """The ``_seeds`` of the letters' weights; none when the Cartan
    letters do not act diagonally with rational weights."""
    try:
        weights = _weights_of_basis(g)
    except ConsistencyError:
        return []
    return _seeds(dict(enumerate(weights)))


def _reach(todo, seeds, bracket):
    """(X, order, recipes): letters X that generate ``todo`` under
    ``bracket``, every letter of ``todo`` in the order it is reached, and
    how each letter outside X is reached.

    X starts as ``seeds``, which are reached at once.  Each round brackets
    every x in X with every reached r and solves, in one growing solver,
    e_y = sum mu bracket(x, r) + sum nu e_s over x, s in X; every letter
    y that solves is reached, and its recipe maps (x, r) to mu and
    (s, None) to nu.  A round that reaches nothing adds the first
    unreached letter to X.  ``bracket(x, r)`` is a dict over letters, or
    empty or None for a pair the caller does not use.

    So a check is needed only on X.  If ad_x and ad_w are superderivations,
    so is ad_[x,w] = [ad_x, ad_w] for homogeneous x and w (Kac 1977;
    Scheunert, LNM 716), and so is a sum of them.  So an identity that
    holds with each x in X first holds, by induction on the reaching
    order, with every letter first: a recipe reads only letters reached
    before its own.
    """
    solver, X, order, recipes = LinearSolver(), [], [], {}
    pending, nx, nr = list(seeds), 0, 0
    while len(order) < len(todo):
        for x in pending:
            solver.add((x, None), {x: ONE})
        X += pending
        order += pending
        # r bracketed in an earlier round still needs the newer x
        for t, r in enumerate(order):
            for x in X[nx if t < nr else 0:]:
                vec = bracket(x, r)
                if vec:
                    solver.add((x, r), vec)
        nx, nr = len(X), len(order)
        reached = set(order)
        for y in todo:
            if y not in reached:
                combo = solver.solve({y: ONE})
                if combo is not None:
                    recipes[y] = combo
                    order.append(y)
        pending = [] if len(order) > nr else [
            y for y in todo if y not in reached][:1]
    return X, order, recipes


def _row_indexes(rows):
    """Indexes of the stored [j, k]: j -> k, k -> j and t -> (j, k, [j,k]_t)."""
    right, left, by_output = {}, {}, {}
    for (j, k), row in rows.items():
        right.setdefault(j, []).append(k)
        left.setdefault(k, []).append(j)
        for t, c in row.items():
            by_output.setdefault(t, []).append((j, k, c))
    return right, left, by_output


def _jacobi_failures(g, first, indexes, unordered=False):
    """A "jacobi: (i,j,k)" line for every triple with i in ``first`` where
    [i, [j, k]] differs from [[i, j], k] + sgn [j, [i, k]], in loop order;
    ``indexes`` is ``_row_indexes`` of g's stored rows.

    For each i the three sides go term by term into one defect per (j, k)
    from the stored rows: with P the stored partners of i, [i, [j, k]]
    from the [j, k] with a component in P, [[i, j], k] from j in P and
    [j, [i, k]] from k in P.  Every other triple has three empty sides,
    so it holds.  The sorted (j, k) with a nonzero defect give the lines
    in the dense loop's order.

    ``unordered`` forms only the defects with j <= k.  On a homogeneous,
    super-skew table the Jacobiator is super-skew in its last two
    arguments, J(i, k, j) = -(-1)^{|j||k|} J(i, j, k), so those decide
    every triple (Kac 1977); the diagonal stays, as J(i, j, j) need not
    vanish for odd j.  The caller must have checked parity and skew first.
    """
    rows, parity = g._bracket, g.parity
    right, left, by_output = indexes
    if unordered:
        by_output = {t: [(j, k, c) for j, k, c in entries if j <= k]
                     for t, entries in by_output.items()}
    failures = []
    for i in first:
        partners = right.get(i, ())
        odd = parity[i]
        defect = defaultdict(dict)
        for t in partners:
            row = rows[i, t]
            for j, k, c in by_output.get(t, ()):
                axpy(defect[j, k], c, row)
        for j in partners:
            for t, c in rows[i, j].items():
                c = -c
                for k in right.get(t, ()):
                    if unordered and k < j:
                        continue
                    axpy(defect[j, k], c, rows[t, k])
        for k in partners:
            for t, c in rows[i, k].items():
                neg = -c
                for j in left.get(t, ()):
                    if unordered and j > k:
                        continue
                    axpy(defect[j, k], c if odd and parity[j] else neg,
                         rows[j, t])
        failures += ["jacobi: (%d,%d,%d)" % (i, j, k)
                     for j, k in sorted(defect) if defect[j, k]]
    return failures


def validate(g):
    """Check all structural identities; returns a list of violation strings.

    The super Jacobi identity with x first says that ad_x is a
    superderivation of the stored bracket, so when every stored bracket
    is homogeneous it is checked only for the letters X that ``_reach``
    finds over the stored rows from the ``_seed_letters``; its docstring
    gives the argument.  That pass is reached only when the parity and
    skew checks report nothing, so the Jacobiator is super-skew in its
    last two arguments, J(i, k, j) = -(-1)^{|j||k|} J(i, j, k), and it
    forms only the pairs j <= k, the diagonal included.  If the parity
    or skew check reports anything, or a triple with i in X fails, every
    triple is checked and the report is the same as the full loop's.
    Either way only the triples where some side reads a stored bracket
    row are visited, into one defect per (j, k) and i: on the others both
    sides are empty.  The skew and supersymmetry checks read (i, j) and (j, i)
    both: they check what the builders write by the supersign.  Every
    check reads only stored entries, invariance too: see its comment.
    """
    report = []
    dim = check_type(g, LieSuperalgebra).dim

    # only a stored row or its transpose can break parity or skew
    # symmetry; sorted, they keep the row-major report order
    rows = g._bracket
    for i, j in sorted(set(rows) | {(j, i) for i, j in rows}):
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

    indexes = _row_indexes(rows)
    if report or _jacobi_failures(g, _reach(
            range(dim), _seed_letters(g), lambda x, r: rows.get((x, r)))[0],
            indexes, unordered=True):
        report += _jacobi_failures(g, range(dim), indexes)

    none = {}

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

    # invariance: per i, one defect per j of ([i,j], k) - (i, [j,k]) over
    # k, from each stored [i, j] and each stored [j, k] with a component
    # t that i pairs with; for every other j both sides are 0, and the
    # sorted j give the dense loop's report
    form_rows = {}
    for (i, j), v in form.items():
        form_rows.setdefault(i, {})[j] = v
    right, _, by_output = indexes
    for i in range(dim):
        defect = defaultdict(dict)
        for j in right.get(i, ()):
            for t, c in rows[i, j].items():
                axpy(defect[j], c, form_rows.get(t, none))
        for t, f in form_rows.get(i, none).items():
            f = -f
            for j, k, c in by_output.get(t, ()):
                acc(defect[j], k, f * c)
        report += ["form not invariant at (%d,%d,%d)" % (i, j, min(defect[j]))
                   for j in sorted(defect) if defect[j]]

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


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------


class RootDatum:
    """Ad-h eigenspace data plus a positive system adapted to the minimal root.

    roots: list of weight tuples (Fractions over the Cartan basis), nonzero.
    spaces: root -> list of basis indices.  parity: root -> 0/1.
    weights: the weight tuple of every basis index, zero on the Cartan.
    theta: the chosen minimal root; positive/simple per the convention
    that puts theta (or theta/2 in the odd case) last among the simples.
    coroot: h = [e_theta, e_-theta] scaled so that theta(h) = 2, as a
    coordinate dict over the Cartan letters; it does not depend on the
    scale of the form.
    degree: root -> alpha(h), the ad-h degree 2(alpha, theta)/(theta, theta).
    """

    def __init__(self, g, roots, spaces, parity, theta, positive, simple,
                 coroot, degree, weights):
        self.algebra = g
        self.roots = roots
        self.spaces = spaces
        self.parity = parity
        self.theta = theta
        self.positive = positive
        self.simple = simple
        self.coroot = coroot
        self.degree = degree
        self.weights = weights

    def is_positive(self, root):
        return root in self.positive

    def multiplicity(self, root):
        return len(self.spaces[root])


def _weights_of_basis(g):
    """Weight vector of every basis index under ad of the Cartan basis."""
    weights = []
    for i in range(g.dim):
        if i in g.cartan:
            weights.append(tuple(Fraction(0) for _ in g.cartan))
            continue
        wt = []
        for t in g.cartan:
            br = g.bracket_basis(t, i)
            extra = [k for k in br if k != i]
            if extra:
                raise ConsistencyError(
                    "ad h%d is not diagonal on basis %d" % (t, i))
            ev = br.get(i, ZERO)
            if not ev.is_rational():
                raise ConsistencyError("irrational eigenvalue at %d" % i)
            wt.append(ev.as_fraction())
        weights.append(tuple(wt))
    return weights


def _over_common_denominator(vectors):
    """(den, ints): each vector as ints over den, the lcm of denominators."""
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    return den, [tuple(c.numerator * (den // c.denominator) for c in v)
                 for v in vectors]


def minimal_root_candidates(g, spaces):
    """Even roots theta with integral short ad-h spectrum and dim g(2) = 1.

    h is the coroot [e_theta, e_-theta], read from the bracket table and
    scaled so that theta(h) = 2.  By invariance it is (e, f) times the
    vector dual to theta, so alpha(h) = 2(alpha, theta)/(theta, theta)
    with no form and no inverse.  The pass runs on int weights over one
    common denominator, which alpha(h) does not see.  ``spaces`` maps
    each root to its letters (``RootDatum.spaces``); the result maps
    each theta, sorted, to (coroot over the Cartan letters, root -> degree).
    """
    position = {c: t for t, c in enumerate(g.cartan)}
    den, keys = _over_common_denominator(spaces)
    letters = dict(zip(keys, spaces.values()))
    cands = {}
    for root, theta, idxs in zip(spaces, keys, spaces.values()):
        if any(g.parity[i] for i in idxs):
            continue
        neg = letters.get(tuple(-c for c in theta))
        if not neg:
            continue
        h = {}
        for i, c in g.bracket_basis(idxs[0], neg[0]).items():
            if i not in position:
                raise ConsistencyError(
                    "[e, f] leaves the Cartan at %s" % (root,))
            h[position[i]] = c.as_fraction()
        # alpha(h) = 2 (h . alpha) / (h . theta), on h over its denominator
        hden, (hvals,) = _over_common_denominator([h.values()])
        hint = list(zip(h, hvals))
        height = sum(c * theta[t] for t, c in hint)
        if not height:
            continue
        degree = []
        top = 0
        for alpha, key, jdxs in zip(spaces, keys, spaces.values()):
            ev, rest = divmod(2 * sum(c * key[t] for t, c in hint), height)
            if rest or abs(ev) > 2:
                break
            if ev:
                degree.append((alpha, ev))
            if ev == 2:
                top += len(jdxs)
        else:
            if top == 1:
                scale = Fraction(2 * den * hden, height)
                coroot = {g.cartan[t]: scalar(c * scale)
                          for t, c in sorted(h.items())}
                # keys copied from a dict keep their hashes: only the
                # nonzero degrees hash a Fraction root again
                out = dict.fromkeys(spaces, 0)
                out.update(degree)
                cands[root] = coroot, out
    return dict(sorted(cands.items()))


def _rational_tuple(x, n, message):
    """``x`` as n Fractions; anything but a sequence of n ints or
    Fractions, bools included, raises ``message % (x, n)``."""
    try:
        entries = tuple(x)
    except TypeError:
        entries = None
    if entries is None or len(entries) != n or any(
            isinstance(c, bool) or not isinstance(c, (int, Fraction))
            for c in entries):
        raise PreconditionError(message % (x, n))
    return tuple(Fraction(c) for c in entries)


def root_decomposition(g, theta=None):
    """Roots, parities and the positive/simple system adapted to theta.

    The one owner of the minimal-root policy: ``theta`` None picks the
    canonical minimal root; a hint is a root tuple, a sequence of rank
    ints or Fractions, checked against the candidates.  Anything else, an
    index into the root list, bools and floats among them, is refused.
    """
    weights = _weights_of_basis(g)
    spaces = {}
    for i, w in enumerate(weights):
        if any(w):
            spaces.setdefault(w, []).append(i)
    cands = minimal_root_candidates(g, spaces)
    if not cands:
        raise PreconditionError("no minimal root exists for %s" % g.display)
    for i, w in enumerate(weights):
        if not any(w) and i not in g.cartan:
            raise ConsistencyError("weight-zero vector %d outside Cartan" % i)
    parity = {}
    for root, idxs in spaces.items():
        ps = {g.parity[i] for i in idxs}
        if len(ps) != 1:
            raise ConsistencyError("mixed parity root space at %s" % (root,))
        parity[root] = ps.pop()
    roots = sorted(spaces)
    for root in roots:
        neg = tuple(-c for c in root)
        if neg not in spaces or parity[neg] != parity[root]:
            raise ConsistencyError("root negation symmetry fails at %s" % (root,))

    if theta is None:
        # canonical pick: coordinate-lex maximum (first sp / first block root)
        theta = max(cands)
    else:
        theta = _rational_tuple(
            theta, len(g.cartan),
            "theta hint %r is not a sequence of %d rationals")
        if theta not in cands:
            raise PreconditionError("root %s is not minimal; valid "
                                    "candidates: %s" % (theta, list(cands)))
    coroot, degree = cands[theta]

    half = tuple(c / 2 for c in theta)
    eta = _generic_functional(g, roots, theta, degree)
    positive = set()
    for root in roots:
        key = eta[root]
        if key > 0 or (key == 0 and degree[root] > 0):
            positive.add(root)

    simple = _indecomposable(positive)
    last = half if half in spaces else theta
    if last not in simple:
        raise ConsistencyError("adapted root is not simple")
    rest = sorted((r for r in simple if r != last), key=lambda r: (eta[r], r))
    simple = rest + [last]
    return RootDatum(g, roots, spaces, parity, theta, positive, simple, coroot,
                     degree, weights)


def _indecomposable(positive):
    """The members of ``positive`` (nonzero weight tuples of ints or
    Fractions) that are not the sum of two members, sorted."""
    pos = list(set(positive))
    scaled = dict(zip(_over_common_denominator(pos)[1], pos))
    return sorted(w for key, w in scaled.items()
                  if not any(tuple(r - b for r, b in zip(key, beta)) in scaled
                             for beta in scaled))


def _diagonal_coordinates(g, root):
    """Express a root over the diagonal entry functionals, block order."""
    if g.family in ("gl", "spo"):
        return list(root)
    m, n = g.params
    c = [Fraction(0)]
    for a, val in enumerate(root):
        if a + 1 == m:
            c.append(val - c[-1])
        else:
            c.append(c[-1] - val)
    if m != n:
        shift = -sum(c) / (m - n)
        c = [cp + shift if p < m else cp - shift for p, cp in enumerate(c)]
    return c


def _generic_functional(g, roots, theta, degree):
    """Values of a functional vanishing on theta and nowhere else, as ints.

    Starts from strictly decreasing weights along the matrix diagonal
    (so the usual ordering of the standard basis functionals), then
    projects out the theta component along the coroot, whose value on a
    root is ``degree[root]`` (2 on theta).  Degenerate seeds get bumped.
    A root lies on the theta line exactly when 2 alpha = alpha(h) theta.
    The diagonal coordinates run as ints over their one common
    denominator den, so every value is 2 den times the rational one: the
    signs and the order are the same.
    """
    _, ints = _over_common_denominator(
        [_diagonal_coordinates(g, root) for root in roots])
    th = ints[roots.index(theta)]
    degrees = [degree[root] for root in roots]
    off_line = [any(2 * a != e * t for a, t in zip(root, theta))
                for root, e in zip(roots, degrees)]
    d = len(th)
    power = 1
    while True:
        w = [(d - i) ** power for i in range(d)]
        base = sum(map(mul, w, th))
        eta = [2 * sum(map(mul, w, key)) - base * e
               for key, e in zip(ints, degrees)]
        if all(v for v, off in zip(eta, off_line) if off):
            return dict(zip(roots, eta))
        power += 1
