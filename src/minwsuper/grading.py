"""Short Z-gradings from a minimal root, with all the distinguished bases.

Everything downstream (normal forms, generator formulas, module
constructions) consumes the object built here: the algebra is rescaled
so that (theta, theta) = 2 and rebased onto letters adapted to the
grading, with the degree -1 symplectic/orthogonal bases, the degree 0
dual root-vector bases, and the weight functionals precomputed.
"""

from fractions import Fraction

from .errors import ConsistencyError, PreconditionError, check_type
from .scalar import HALF, ONE, ZERO, acc, axpy, scalar, sqrt
from .superalgebra import (LieSuperalgebra, _rational_inverse,
                           _rational_kernel, _rational_tuple,
                           _weights_of_basis, root_decomposition)


def _neg(root):
    return tuple(-c for c in root)


def _dual_basis(pairing, members, pos):
    """Combinations D_i of the ``pos`` vectors with
    pairing(D_i, members[j]) = delta_ij, from one inverted Gram matrix."""
    if len(pos) != len(members):
        raise ConsistencyError("unbalanced pairing: %d against %d vectors"
                               % (len(pos), len(members)))
    gram = [[pairing(p, q).as_fraction() for q in members] for p in pos]
    duals = []
    for row in _rational_inverse(gram):
        vec = {}
        for c, p in zip(row, pos):
            axpy(vec, scalar(c), p)
        duals.append(vec)
    return duals


class MinimalGrading:
    """Everything attached to the short grading of a minimal root.

    Public data (indices refer to ``self.algebra``, the rescaled algebra
    rebased so that each distinguished vector is a basis letter, ordered
    by descending ad-h degree with f last):

      e, f, hth        -- the sl(2) triple letters, [e, f] = h
      E, F             -- coordinate dicts, only when parity_type == "odd"
      hes              -- the k-1 Cartan letters spanning h^e
      xs/xstars        -- degree 0 even root letters, (x*_i, x_j) = delta
      ys/ystars        -- odd counterparts
      us, vs           -- degree -1 bases with the standard chi-pairings
      fs/fstars        -- [e, u_i] and [e, u*_i], i up to s/2
      gs/gstars, gmid  -- odd analogues; gmid = [v_mid, e] when r is odd
      letter_weights,  -- each letter's weight on the adapted Cartan
      degrees             hes + (hth,), split into its restricted weight
                          (zero on the Cartan) and its int ad-h degree
      spaces           -- degree -> tuple of letters
    """

    def __init__(self, g, theta=None):
        self.base = check_type(g, LieSuperalgebra)
        self.rd = root_decomposition(g, theta)
        self.theta = self.rd.theta
        # the wgen.WAlgebra workspace, set up by wgen.workspace on first use
        self._workspace = None
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self):
        g, rd = self.base, self.rd
        cartan = list(g.cartan)

        # sl(2) part: e spans the theta space, f is scaled so that [e, f]
        # is the coroot h, and the form so that (e, f) = 1, which makes
        # (theta, theta) = 2
        e_idx = rd.spaces[rd.theta][0]
        f_idx = rd.spaces[_neg(rd.theta)][0]
        e_vec = {e_idx: ONE}
        h_vec = rd.coroot
        t, c = next(iter(g.bracket_basis(e_idx, f_idx).items()))
        f_vec = {f_idx: h_vec[t] / c}
        if g.bracket(e_vec, f_vec) != h_vec:
            raise ConsistencyError("triple normalization failed")
        self.scale = g.pair(e_vec, f_vec).inv().as_fraction()
        work = g.with_form_scaled(self.scale)
        degree = rd.degree

        self.s = sum(rd.multiplicity(r) for r in rd.roots
                     if degree[r] == -1 and not rd.parity[r])
        self.r = sum(rd.multiplicity(r) for r in rd.roots
                     if degree[r] == -1 and rd.parity[r])
        self.parity_type = "odd" if self.r % 2 else "even"

        chi0 = lambda x: work.pair(e_vec, x)

        def dual_block(neg_root, members):
            """Duals in the (-theta - neg_root) space: <D_i, X_j> = delta."""
            star = _neg(tuple(a + b for a, b in zip(rd.theta, neg_root)))
            pos = [{i: ONE} for i in rd.spaces[star]]
            return _dual_basis(lambda p, q: chi0(work.bracket(p, q)),
                               members, pos)

        half = tuple(-c / 2 for c in rd.theta)

        def paired_block(parity, size):
            """Degree -1 basis of one parity: the root vectors of the
            negative roots from the front, their duals mirrored from the
            back, and the middle slot left to the midline (-theta/2)."""
            out = [None] * size
            i = 0
            for root in sorted(r for r in rd.roots
                               if degree[r] == -1 and r != half
                               and rd.parity[r] == parity
                               and not rd.is_positive(r)):
                members = [{j: ONE} for j in rd.spaces[root]]
                for vec, dual in zip(members, dual_block(root, members)):
                    out[i] = vec
                    out[size - 1 - i] = dual
                    i += 1
            return out, i

        us, paired = paired_block(0, self.s)
        if 2 * paired != self.s:
            raise ConsistencyError("even degree -1 pairing incomplete")
        vs, _ = paired_block(1, self.r)
        if self.r % 2:
            idxs = rd.spaces[half]
            if len(idxs) != 1:
                raise ConsistencyError("middle root space is not a line")
            x = {idxs[0]: ONE}
            rt = sqrt(chi0(work.bracket(x, x)))
            vs[(self.r - 1) // 2] = {j: v / rt for j, v in x.items()}

        # degree 0 dual root-vector bases, against the invariant form
        pos_zero = sorted(r for r in rd.roots
                          if degree[r] == 0 and rd.is_positive(r))

        xs, xstars, ys, ystars = [], [], [], []
        for root in pos_zero:
            lows = [{j: ONE} for j in rd.spaces[_neg(root)]]
            highs = _dual_basis(work.pair, lows,
                                [{j: ONE} for j in rd.spaces[root]])
            if rd.parity[root]:
                ys.extend(lows)
                ystars.extend(highs)
            else:
                xs.extend(lows)
                xstars.extend(highs)
        self.w = len(xs)
        self.l = len(ys)

        # h^e is the kernel of theta inside the Cartan
        hes = [{cartan[i]: c for i, c in coeffs.items()}
               for coeffs in _rational_kernel([{0: c} for c in rd.theta])]

        fs = [work.bracket(e_vec, u) for u in us[: self.s // 2]]
        fstars = [work.bracket(e_vec, us[self.s - 1 - i])
                  for i in range(self.s // 2)]
        gs = [work.bracket(e_vec, v) for v in vs[: self.r // 2]]
        gstars = [work.bracket(e_vec, vs[self.r - 1 - i])
                  for i in range(self.r // 2)]
        gmid = None
        if self.r % 2:
            gmid = work.bracket(vs[(self.r - 1) // 2], e_vec)

        order = []

        def put(label, vec):
            order.append((label, vec))
            return len(order) - 1

        def put_run(prefix, vecs):
            """Append the letters prefix1, prefix2, ...; their indices."""
            return tuple(put("%s%d" % (prefix, i + 1), v)
                         for i, v in enumerate(vecs))

        self.e = put("e", e_vec)
        self.fstars = put_run("fstar", fstars)
        self.gstars = put_run("gstar", gstars)
        self.gmid = put("gmid", gmid) if gmid is not None else None
        self.fs = put_run("f", fs)
        self.gs = put_run("g", gs)
        self.hes = put_run("h", hes)
        self.hth = put("hth", h_vec)
        self.xstars = put_run("xstar", xstars)
        self.ystars = put_run("ystar", ystars)
        self.xs = put_run("x", xs)
        self.ys = put_run("y", ys)
        self.us = put_run("u", us)
        self.vs = put_run("v", vs)
        self.f = put("f", f_vec)
        self.vmid = self.vs[(self.r - 1) // 2] if self.r % 2 else None
        if len(order) != g.dim:
            raise ConsistencyError(
                "adapted basis has %d of %d vectors" % (len(order), g.dim))
        self.algebra = work.rebase([v for _, v in order],
                                   self.hes + (self.hth,),
                                   labels=[lab for lab, _ in order])
        self._letter_vectors = tuple(dict(v) for _, v in order)

        weights = _weights_of_basis(self.algebra)
        self.letter_weights = tuple(w[:-1] for w in weights)
        self.degrees = tuple(int(w[-1]) for w in weights)
        spaces = {}
        for i, d in enumerate(self.degrees):
            spaces.setdefault(d, []).append(i)
        self.spaces = {d: tuple(v) for d, v in spaces.items()}

        if self.r % 2:
            self.F = {self.vmid: sqrt(-2)}
            self.E = self.algebra.bracket(self.F, {self.e: ONE})
        else:
            self.F = self.E = None

    def _root_of(self, vec):
        """Common root (over the base Cartan) of a weight vector, or None."""
        found = None
        for i in vec:
            root = self.rd.weights[i]
            if any(root):
                if found not in (None, root):
                    raise ConsistencyError("mixed-root vector")
                found = root
        return found

    # -- queries -----------------------------------------------------------

    def chi(self, x):
        """chi(x) = (e, x) in the rescaled form."""
        return self.algebra.pair({self.e: ONE}, x)

    def root_of_letter(self, i):
        """Root of letter i over the base Cartan; None on the Cartan."""
        if type(i) is not int or not 0 <= i < self.algebra.dim:
            raise PreconditionError("%r is not a letter of the adapted "
                                    "algebra" % (i,))
        return self._root_of(self._letter_vectors[i])

    def dims_per_degree(self):
        g = self.algebra
        out = {}
        for d in range(-2, 3):
            idxs = self.spaces.get(d, ())
            ev = sum(1 for i in idxs if g.parity[i] == 0)
            out[d] = (ev, len(idxs) - ev)
        return out

    def centralizer_letters(self):
        """Letters spanning g^e = g(0)# + g(1) + g(2)."""
        return tuple([self.e] + list(self.spaces.get(1, ()))
                     + list(self.hes) + list(self.xstars) + list(self.ystars)
                     + list(self.xs) + list(self.ys))

    def sharp(self, x):
        """Project onto the orthocomplement of h in g(0): x - (h, x) h / 2."""
        c = self.algebra.pair({self.hth: ONE}, x)
        out = dict(x)
        acc(out, self.hth, -c * HALF)
        return out

    def restrict_weight(self, root):
        """Values of a base-Cartan weight tuple on the h^e letters."""
        cartan = list(self.base.cartan)
        root = _rational_tuple(root, len(cartan),
                               "weight %r is not %d rationals")
        out = []
        for j in self.hes:
            vec = self._letter_vectors[j]
            val = Fraction(0)
            for b, coeff in vec.items():
                val += root[cartan.index(b)] * coeff.as_fraction()
            out.append(val)
        return tuple(out)

    def to_json_dict(self):
        dims = self.dims_per_degree()
        sub = admissible_subalgebras(self)
        return {
            "algebra": self.base.display,
            "theta": [str(c) for c in self.theta],
            "dims_per_degree": {str(d): list(dims[d]) for d in sorted(dims)},
            "s": self.s,
            "r": self.r,
            "parity_type": self.parity_type,
            "subalgebra_dims": {k: len(v) for k, v in sub.items()},
        }


def grade(g, theta=None):
    """Construct the MinimalGrading; the main entry point."""
    return MinimalGrading(g, theta)


def neg_one_bases(grading):
    """The degree -1 letters and their duals: <z*_a, z_b> = delta_ab."""
    s, r = grading.s, grading.r
    zstars = []
    for a in range(s):
        sign = ONE if a < s // 2 else -ONE
        zstars.append({grading.us[s - 1 - a]: sign})
    for a in range(r):
        zstars.append({grading.vs[r - 1 - a]: ONE})
    return {"z": [{i: ONE} for i in grading.us + grading.vs],
            "zstar": zstars}


def admissible_subalgebras(grading):
    """Index spans of m, m', n, n', n0 and l in the adapted algebra."""
    s, r = grading.s, grading.r
    us, vs = grading.us, grading.vs
    second_u = list(us[s // 2:])
    if r % 2:
        mid = (r - 1) // 2
        second_v = list(vs[(r + 1) // 2:])
        lset = list(us) + [v for i, v in enumerate(vs) if i != mid]
        extra = [vs[mid]]
    else:
        second_v = list(vs[r // 2:])
        lset = list(us) + list(vs)
        extra = []
    m = [grading.f] + second_u + second_v
    return {
        "m": tuple(m),
        "mprime": tuple(m + extra),
        "n": (grading.f,),
        "nprime": tuple([grading.f] + list(us) + list(vs)),
        "nzero": tuple([grading.f] + lset),
        "l": tuple(lset),
    }


class WeightData:
    """delta, rho and rho_{e,0} restricted to h^e, plus the induced pairing.

    Functionals are value tuples over the h^e letters.  The Gram matrix
    of that basis is inverted once, here; ``inverse`` holds its rows,
    ``dual`` applies it and ``pair`` is the induced form.
    ``casimir_pairs`` holds the h^e part of the g(0)# Casimir, the sum of
    c * a b over its (a, b, Scalar c) triples, one per nonzero entry of
    the inverse.
    """

    def __init__(self, letters, delta_bar, rho_bar, rho_e0_bar, gram):
        self.letters = letters
        self.delta_bar = delta_bar
        self.rho_bar = rho_bar
        self.rho_e0_bar = rho_e0_bar
        self.gram = gram
        self.inverse = _rational_inverse(gram)
        self.casimir_pairs = tuple(
            (a, b, scalar(c)) for a, row in zip(letters, self.inverse)
            for b, c in zip(letters, row) if c)

    def dual(self, psi):
        """Coordinates over the h^e letters of the vector representing psi."""
        return tuple(sum((r * Fraction(v) for r, v in zip(row, psi)),
                         Fraction(0)) for row in self.inverse)

    def pair(self, phi, psi):
        return sum((Fraction(a) * b for a, b in zip(phi, self.dual(psi))),
                   Fraction(0))

    def zero(self):
        return tuple(Fraction(0) for _ in self.letters)


def weights_delta_rho(grading):
    """The shift weights on h^e and the Gram matrix of the h^e letters."""
    g = grading.algebra
    s, r = grading.s, grading.r
    half = Fraction(1, 2)

    def total(terms):
        """Sum of c * letter_weights[i] over the (i, c) pairs."""
        out = [Fraction(0)] * len(grading.hes)
        for i, c in terms:
            for k, v in enumerate(grading.letter_weights[i]):
                out[k] += c * v
        return tuple(out)

    delta = total([(i, -half) for i in grading.us[: s // 2]]
                  + [(i, half) for i in grading.vs[: r // 2]])
    rho = total((i, -half if g.parity[i] else half)
                for i in range(g.dim)
                if grading.rd.is_positive(grading.root_of_letter(i)))
    rho_e0 = total([(i, half) for i in grading.xstars]
                   + [(i, -half) for i in grading.ystars])

    gram = tuple(
        tuple(g.form.get((a, b), ZERO).as_fraction() for b in grading.hes)
        for a in grading.hes)
    return WeightData(grading.hes, delta, rho, rho_e0, gram)
