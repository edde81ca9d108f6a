"""Spans around calls into knotsig's layers, recorded from outside the
program by replacing each layer's public functions with timed wrappers.

A layer is named after the module that owns it. A call from inside a layer
into another function of the same module is that layer's own work, so it
opens no span of its own: the diagram rebuilds that `braid_word` makes
through `DiagramCode.from_tuples` count as `diagram.braid_word` time, not
as parsing. Spans and counts stay in memory until the pass ends.
"""

import sys
import time
from collections import defaultdict

import knotsig.braid
import knotsig.census
import knotsig.diagram
import knotsig.exactlin
import knotsig.geodesic
import knotsig.torus
import knotsig.twistfam


def _parse(tracer, args, result):
    tracer.count("diagram.parse", "crossings", result.n)


def _checkerboard(tracer, args, result):
    tracer.count("diagram.checkerboard", "dim", result.matrix.n)


def _braid_word(tracer, args, result):
    # each coherence move adds two crossings
    layer = "diagram.braid_word"
    tracer.count(layer, "vogel_moves", (len(result) - args[0].n) // 2)
    tracer.count(layer, "letters", len(result))
    tracer.peak(layer, "strands_max", max((abs(x) for x in result), default=0) + 1)


def _collins(tracer, args, result):
    tracer.count("braid.collins_seifert_matrix", "dim", len(result))


def _inertia(tracer, args, result):
    m = args[0]
    tracer.count("exactlin.inertia", "dim_sum", m.n)
    tracer.peak("exactlin.inertia", "dim_max", m.n)
    tracer.count("exactlin.inertia", "nonzeros", m.n * m.n - sum(row.count(0) for row in m.entries))


def _ingest(tracer, args, result):
    tracer.count("census.ingest", "rows", len(result))


def _derive(tracer, args, result):
    tracer.count("census.derive", "rows", len(result.rows))


def _emit(tracer, args, result):
    tracer.count("census.emit", "bytes", sum(p.stat().st_size for p in result))


_DiagramCode = knotsig.diagram.DiagramCode

# (layer, owner, attribute, size recorder)
LAYERS = (
    ("diagram.parse", knotsig.diagram, "parse_pd", _parse),
    ("diagram.parse", _DiagramCode, "from_tuples", _parse),
    ("diagram.parse", _DiagramCode, "from_braid_word", _parse),
    ("diagram.checkerboard", knotsig.diagram, "checkerboard", _checkerboard),
    ("diagram.braid_word", knotsig.diagram, "braid_word", _braid_word),
    ("braid.collins_seifert_matrix", knotsig.braid, "collins_seifert_matrix", _collins),
    ("exactlin.inertia", knotsig.exactlin, "inertia", _inertia),
    ("torus.kappa", knotsig.torus, "kappa", None),
    ("twistfam.twist_insert", knotsig.twistfam, "twist_insert", None),
    ("geodesic.twisting_parameter", knotsig.geodesic, "twisting_parameter", None),
    ("census.ingest", knotsig.census, "ingest", _ingest),
    ("census.derive", knotsig.census, "derive", _derive),
    ("census.emit", knotsig.census, "emit", _emit),
)

# every per-layer count the traced run reports, zero when a workload never
# reaches the layer
SIZES = {
    "diagram.parse": ("crossings",),
    "diagram.checkerboard": ("dim",),
    "diagram.braid_word": ("vogel_moves", "letters", "strands_max"),
    "braid.collins_seifert_matrix": ("dim",),
    "exactlin.inertia": ("dim_sum", "dim_max", "nonzeros"),
    "torus.kappa": (),
    "twistfam.twist_insert": (),
    "geodesic.twisting_parameter": (),
    "census.ingest": ("rows", "warnings"),
    "census.derive": ("rows",),
    "census.emit": ("bytes",),
}


class Tracer:
    """Spans as [name, start, end, parent index, job index], plus per-layer
    counts. Each "job" span opens a new job index."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.jobs = 0

    def open(self, name):
        if name == "job":
            self.jobs += 1
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.jobs - 1])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, layer, key, value):
        self.counts[layer + "." + key] += value

    def peak(self, layer, key, value):
        name = layer + "." + key
        self.counts[name] = max(self.counts[name], value)

    def wrap(self, layer, func, sizes):
        module = layer.partition(".")[0]
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0].partition(".")[0] == module:
                return func(*args, **kwargs)
            self.open(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close()
            if sizes is not None:
                sizes(self, args, result)
            return result

        return traced

    def install(self):
        """Swap every knotsig reference to a layer function for its traced
        wrapper; returns the undo list for `uninstall`."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "knotsig"]
        undo = []
        for layer, owner, attr, sizes in LAYERS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                undo.append((owner, attr, original))
                setattr(owner, attr, classmethod(self.wrap(layer, original.__func__, sizes)))
                continue
            traced = self.wrap(layer, original, sizes)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, traced)
        return undo

    @staticmethod
    def uninstall(undo):
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    def summary(self, wall_s, factors):
        """Per-layer calls, self seconds and counts; `job.self_s` is job
        time no layer span covers, `trace.coverage` the share of the
        traced wall time that layer spans cover. Span times of job i are
        scaled by factors[i], as the job's own time is."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child_s[parent] += (end - start) * factors[job]
        out = {}
        for layer, keys in SIZES.items():
            out[layer + ".calls"] = 0
            out[layer + ".self_s"] = 0.0
            for key in keys:
                out[layer + "." + key] = self.counts.get(layer + "." + key, 0)
        out["job.self_s"] = 0.0
        covered = 0.0
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            out[name + ".self_s"] += (end - start) * factors[job] - child_s[i]
            if name == "job":
                covered += child_s[i]
            else:
                out[name + ".calls"] += 1
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return out
