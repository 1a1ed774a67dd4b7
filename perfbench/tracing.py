"""In-memory spans recorded by the benchmark around calls into minwsuper.

A span is (name, parent, start, end, phase); ``name`` is ``module.call``
and the module part is the layer it is charged to.  Spans are kept in
flat lists and written out once, when the run ends, so recording one
costs two clock reads and a few appends.
"""

import functools
import json
import os
import time

# Public methods wrapped in a traced run, so that calls the package makes
# internally (inside the commutator table, the relation suite or project_pi)
# are timed too, and their time is charged to their own module.
INNER_CALLS = (
    ("envelope", "PBWAlgebra", "mul"),
    ("envelope", "PBWAlgebra", "commutator"),
    ("envelope", "PBWAlgebra", "project_qfin"),
    ("envelope", "PBWAlgebra", "is_invariant"),
    ("wgen", "WAlgebra", "mul_raw"),
    ("wgen", "WAlgebra", "certify"),
    ("wgen", "WAlgebra", "pbw_coordinates"),
    ("wgen", "WAlgebra", "evaluate_coordinates"),
    ("cartanw", None, "project_pi"),
)


class NullTracer:
    """Untraced runs: a span is a plain call."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def begin(self, name, tag=None):
        return -1

    def end(self, sid):
        pass


class Tracer:
    """Records spans for one run; every span carries the run's id."""

    enabled = True

    def __init__(self, run_id):
        self.run_id = run_id
        self.phase = "setup"
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.phases = []
        self.tags = {}
        self._stack = [-1]

    def begin(self, name, tag=None):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.phases.append(self.phase)
        self.ends.append(0)
        if tag is not None:
            self.tags[sid] = tag
        self._stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def end(self, sid):
        self.ends[sid] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args):
        sid = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(sid)

    def instrument(self, pkg):
        """Wrap ``INNER_CALLS`` of a freshly imported package in spans."""
        for module, owner, attr in INNER_CALLS:
            target = getattr(pkg, module)
            if owner is not None:
                target = getattr(target, owner)
            setattr(target, attr,
                    self._wrap(getattr(target, attr), module + "." + attr))

    def _wrap(self, fn, name):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(sid)
        return traced

    # -- analysis ------------------------------------------------------------

    def durations_and_self(self):
        """Per span: duration, and self time (minus its direct children)."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * len(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[sid]
        return dur, [d - c for d, c in zip(dur, child)]

    def span_tags(self):
        """Tag of each span, inherited from the nearest tagged ancestor."""
        out = [None] * len(self.names)
        for sid, parent in enumerate(self.parents):
            out[sid] = self.tags.get(sid, out[parent] if parent >= 0 else None)
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id,
                                 "clock": "perf_counter_ns",
                                 "fields": ["id", "parent", "name", "start",
                                            "end", "phase", "tag"]}) + "\n")
            for sid, tag in enumerate(self.span_tags()):
                fh.write(json.dumps([sid, self.parents[sid], self.names[sid],
                                     self.starts[sid], self.ends[sid],
                                     self.phases[sid], tag]) + "\n")

