"""Correctness gate of the benchmark, and the frozen values it checks against.

Every checker returns a list of problems; an empty list means the output
is right.  The checkers only read outputs, so a test can feed them a
corrupted output without touching the engine.

The c0/epsilon values and digests below are regression freezes of the
seed build (package source as of commit e7b534e, unchanged since 351cf48),
not independent truths.  The exceptions are osp:1|2, which is checked by
hand, and the values the repository's own tests pin (``C0_VALUES`` and
``EPSILON_VALUES`` in tests/test_wgen.py); the rest were read from a run
of the seed build and agree with those where both exist.
"""

import hashlib
import json

SEED_COMMIT = "e7b534e"

# descriptor -> (c0, epsilon or None), as ``Scalar.render`` prints them
FROZEN_CONSTANTS = {
    "osp:1|2": ("-1/16", "1/16"),
    "sl:2|1": ("1/4", None),
    "sl:1|2": ("1/4", None),
    "gl:2|1": ("1/4", None),
    "spo:2|2": ("1/4", None),
    "spo:2|3": ("9/16", "9/16"),
    "spo:4|1": ("-11/16", "1/16"),
    "psl:2|2": ("1", None),
    "sl:3|1": ("-1/2", None),
    "gl:3|1": ("-1/2", None),
    "spo:2|4": ("7/8", None),
    "spo:4|2": ("-3/8", None),
    "sl:4|1": ("-5/4", None),
    "sl:3|2": ("1/4", None),
    "spo:2|5": ("19/16", "25/16"),
    "spo:4|3": ("-1/16", "1/16"),
    "spo:6|1": ("-21/16", "9/16"),
    "spo:2|6": ("3/2", None),
    "psl:3|3": ("1", None),
    "sl:4|2": ("-1/2", None),
    "spo:6|2": ("-1", None),
    "spo:8|1": ("-31/16", "25/16"),
}

# descriptor -> (digest of the relation report, digest of the rendered
# commutator table); see ``report_digest`` and ``table_digest``
FROZEN_DIGESTS = {
    "osp:1|2": ("a9e2ecce3d6c313f2293", "d4f770bcdd4a8c9e859f"),
    "sl:2|1": ("df57594b5f90ff2da0e8", "3acafa90a7321c59a232"),
    "spo:2|5": ("7d9c97f79a305085b436", "d9a2ef5f6ab5ccbacadc"),
    "psl:3|3": ("6c4ff07cda6cc6b1b717", "27f11d8f2ec369f5579f"),
    "spo:8|1": ("0388ea18432c9049e91d", "e7ed3a4ccafb9f1cc343"),
}

# the keys of today's relation report; keys added later are ignored
REPORT_KEYS = ("algebra", "parity_type", "suite", "generators", "c0",
               "epsilon", "ok")
IDENTITY_KEYS = ("id", "cases", "failures")


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def report_digest(report):
    core = {k: report.get(k) for k in REPORT_KEYS}
    core["identities"] = [{k: ident.get(k) for k in IDENTITY_KEYS}
                          for ident in report.get("identities", ())]
    return _digest(core)


def table_digest(wal, table, render_monomial):
    lines = []
    for (a, b), coords in sorted(table.items()):
        body = " + ".join("(%s)*%s" % (c.render(), render_monomial(wal, expo))
                          for expo, c in sorted(coords.items()))
        lines.append("[%s,%s] = %s" % (a, b, body or "0"))
    return _digest(lines)


def check_constants(descriptor, c0, epsilon):
    want = FROZEN_CONSTANTS.get(descriptor)
    if want is None:
        return ["%s: no frozen c0/epsilon" % descriptor]
    got = (c0.render(), None if epsilon is None else epsilon.render())
    if got != want:
        return ["%s: c0/epsilon %s, frozen %s" % (descriptor, got, want)]
    return []


def check_relations(descriptor, report, warm_report, tdigest):
    """Gate of one relation report: ``ok``, the warm run repeats the cold
    one, and both digests match the seed build."""
    problems = []
    if report.get("ok") is not True:
        problems.append("%s: relation report not ok" % descriptor)
    rdigest = report_digest(report)
    if report_digest(warm_report) != rdigest:
        problems.append("%s: warm report differs from the cold one"
                        % descriptor)
    want = FROZEN_DIGESTS.get(descriptor)
    if want is None:
        problems.append("%s: no frozen digests" % descriptor)
    elif (rdigest, tdigest) != want:
        problems.append("%s: digests %s, frozen %s"
                        % (descriptor, (rdigest, tdigest), want))
    return problems


def check_product(xy, back, pi_xy, pi_x_pi_y):
    """Gate of one product: its coordinates evaluate back to it, and
    project_pi(xy) equals project_pi(x) * project_pi(y)."""
    problems = []
    if back != xy:
        problems.append("evaluate_coordinates(pbw_coordinates(xy)) != xy")
    if not (pi_xy - pi_x_pi_y).is_zero():
        problems.append("project_pi(xy) != project_pi(x) * project_pi(y)")
    return problems
