"""The three workloads: what one set-up and one op do, and the op order.

Each workload is a closed loop with one caller in one thread.  A pass is a
fixed set of ops; the seed only shuffles their order, so every pass does
the same work.  Ops call the package's public functions from outside it,
through ``tracer.call`` so that a traced run can time each layer.

An op returns a closure that checks its outputs; run.py calls it
after the op's clock has stopped, so the gate's own hashing is not timed.
"""

import checks

RELATIONS = ("spo:2|5", "psl:3|3", "spo:8|1")
CONSTANTS = ("osp:1|2", "sl:2|1", "sl:1|2", "gl:2|1", "spo:2|2", "spo:2|3",
             "spo:4|1", "psl:2|2", "sl:3|1", "gl:3|1", "spo:2|4", "spo:4|2",
             "sl:4|1", "sl:3|2", "spo:2|5", "spo:4|3", "spo:6|1", "spo:2|6",
             "psl:3|3", "sl:4|2", "spo:6|2")
STREAM = ("spo:2|3", "sl:2|1")

COUNTS = ("envelope.letter_cache_entries", "wgen.mono_cache_entries",
          "wgen.theta_cache_entries", "wgen.table_entries",
          "wgen.verify_cases")


def slug(descriptor):
    return descriptor.replace(":", "-").replace("|", "-")


def cache_sizes(wal):
    """Entries in the workspace's PBW letter, monomial and theta caches."""
    return {
        "envelope.letter_cache_entries": len(wal.pbw._cache),
        "wgen.mono_cache_entries": len(wal._mono_cache),
        "wgen.theta_cache_entries": len(wal._theta_cache),
    }


class Outcome:
    """What one op leaves behind: problems found, counts, and its workspace."""

    __slots__ = ("problems", "counts", "workspace")

    def __init__(self, problems, counts=None, workspace=None):
        self.problems = problems
        self.counts = counts or {}
        self.workspace = workspace


def _constants(pkg, tr, descriptor):
    """build_algebra -> validate -> grade -> generators -> c0 -> epsilon,
    and the gate on their outputs."""
    g = tr.call("superalgebra.build_algebra", pkg.superalgebra.build_algebra,
                descriptor)
    validation = tr.call("superalgebra.validate", pkg.superalgebra.validate, g)
    gr = tr.call("grading.grade", pkg.grading.grade, g)
    wal = pkg.wgen.workspace(gr)
    tr.call("wgen.generators", getattr, wal, "generators")
    c0 = tr.call("wgen.c0", pkg.wgen.compute_c0, gr)
    eps = None
    if gr.parity_type == "odd":
        eps = tr.call("wgen.epsilon", pkg.wgen.compute_epsilon, gr)

    def check():
        problems = ["%s: validate: %s" % (descriptor, v)
                    for v in validation[:3]]
        return problems + checks.check_constants(descriptor, c0, eps)
    return gr, wal, check


class Workload:
    """A pass is every key of ``keys`` once, in an order drawn from ``rng``;
    a run is ``passes`` passes, each 10 to 25 s at nominal speed."""

    passes = 1

    def __init__(self, descriptors=None):
        self.descriptors = tuple(descriptors or self.DEFAULT)

    def prepare(self, pkg, tr):
        """One set-up; returns the op state and any problems found."""
        return pkg, []

    def keys(self, state):
        return list(self.descriptors)

    def pass_keys(self, state, rng):
        keys = self.keys(state)
        rng.shuffle(keys)
        return keys

    def tag(self, key):
        return slug(key)

    def final(self, state, outcomes):
        """Cache and work counts, and the workspaces, after the last pass."""
        counts = dict.fromkeys(COUNTS, 0)
        for out in outcomes:
            for name, n in out.counts.items():
                counts[name] += n
        return counts, [out.workspace for out in outcomes if out.workspace]


class Relations(Workload):
    name = "relations"
    why = ("The verified relation report is the paper's headline output; "
           "cold builds fill the envelope and wgen caches, so a faster "
           "straightener (ROADMAP item 2) must show its gain here.")
    DEFAULT = RELATIONS

    def op(self, pkg, key, tr):
        wg = pkg.wgen
        gr, wal, check_constants = _constants(pkg, tr, key)
        tr.call("cartanw.build_cartan_w", pkg.cartanw.build_cartan_w, gr)
        table = tr.call("wgen.commutator_table", getattr, wal,
                        "commutator_table")
        report = tr.call("wgen.verify_relations", wg.verify_relations, gr)
        warm = tr.call("wgen.verify_relations_warm", wg.verify_relations, gr)

        def check():
            tdigest = checks.table_digest(wal, table, wg.render_monomial)
            counts = cache_sizes(wal)
            counts["wgen.table_entries"] = len(table)
            counts["wgen.verify_cases"] = sum(i["cases"]
                                              for i in report["identities"])
            problems = check_constants() + checks.check_relations(
                key, report, warm, tdigest)
            return Outcome(problems, counts, wal)
        return check


class Constants(Workload):
    name = "constants"
    why = ("A breadth sweep up to dim 35 where superalgebra and grading "
           "(validate, Gram matrices) do most of the work and PBW "
           "straightening none, so a straightener change must leave it "
           "unchanged.")
    DEFAULT = CONSTANTS

    def op(self, pkg, key, tr):
        cw = pkg.cartanw
        gr, wal, check_constants = _constants(pkg, tr, key)
        alg = tr.call("cartanw.build_cartan_w", cw.build_cartan_w, gr)
        tr.call("cartanw.center_basis", cw.center_basis, alg)
        return lambda: Outcome(check_constants(), cache_sizes(wal), wal)


class Stream(Workload):
    name = "stream"
    why = ("Read-mostly use of warm PBW caches: every product is "
           "straightened, evaluated back and projected, the only workload "
           "where cartanw's pi runs.")
    DEFAULT = STREAM
    # op_p90_ms is the tail of 160 ops; two passes steady it
    passes = 2

    def prepare(self, pkg, tr):
        """Workspaces and pools for every algebra, then warm their caches
        with every product and coordinate expansion a pass will ask for."""
        wg = pkg.wgen
        spaces, problems = [], []
        for descriptor in self.descriptors:
            sid = tr.begin("bench.setup", slug(descriptor))
            gr, wal, check_constants = _constants(pkg, tr, descriptor)
            problems += check_constants()
            tr.call("cartanw.build_cartan_w", pkg.cartanw.build_cartan_w, gr)
            pool = self._pool(pkg, wal)
            for x in pool:
                wg.pbw_coordinates(x)
                for y in pool:
                    wg.pbw_coordinates(wg.w_multiply(x, y))
            spaces.append((gr, wal, pool))
            tr.end(sid)
        return (pkg, spaces), problems

    @staticmethod
    def _pool(pkg, wal):
        """Generators of restricted weight 0, and the products of generator
        pairs whose restricted weights cancel."""
        weight, mul = pkg.cartanw.restricted_weight, pkg.wgen.w_multiply
        gens = [gen.element.as_finite() for gen in wal.generators]
        pool = []
        for a in gens:
            wa = weight(a)
            if not any(wa):
                pool.append(a)
                continue
            for b in gens:
                if all(x + y == 0 for x, y in zip(wa, weight(b))):
                    pool.append(mul(a, b))
        return pool

    def keys(self, state):
        _, spaces = state
        return [(k, i, j) for k, (_, _, pool) in enumerate(spaces)
                for i in range(len(pool)) for j in range(len(pool))]

    def tag(self, key):
        return slug(self.descriptors[key[0]])

    def op(self, state, key, tr):
        pkg, spaces = state
        wg, cw = pkg.wgen, pkg.cartanw
        gr, _, pool = spaces[key[0]]
        x, y = pool[key[1]], pool[key[2]]
        xy = tr.call("wgen.w_multiply", wg.w_multiply, x, y)
        back = wg.evaluate_coordinates(gr, wg.pbw_coordinates(xy))
        lhs = cw.project_pi(xy)
        rhs = tr.call("cartanw.element_mul", cw.CartanWElement.__mul__,
                      cw.project_pi(x), cw.project_pi(y))
        where = "%s pool[%d]*pool[%d]: " % (self.descriptors[key[0]], key[1],
                                           key[2])
        return lambda: Outcome([where + p for p in checks.check_product(
            xy.value, back.value, lhs, rhs)])

    def final(self, state, outcomes):
        _, spaces = state
        counts = dict.fromkeys(COUNTS, 0)
        for _, wal, _ in spaces:
            for name, n in cache_sizes(wal).items():
                counts[name] += n
        return counts, [wal for _, wal, _ in spaces]


WORKLOADS = {w.name: w for w in (Relations, Constants, Stream)}
