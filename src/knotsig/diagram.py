"""Planar diagram codes and two independent knot-signature pipelines.

Conventions, fixed once for the whole package:

- A crossing tuple (a, b, c, d) lists the four arc labels counterclockwise
  starting at the incoming under-strand, so the under-strand runs a -> c
  and the over-strand occupies slots b and d.
- The crossing is positive when the over-strand runs d -> b, negative when
  it runs b -> d.
- Faces are orbits of the rotation system; the unbounded face is the face
  at the corner between slots 0 and 1 of the first crossing, and "white"
  is the checkerboard colour of that face.
- Codes are strict: one whose under-strand enters some crossing at slot 2
  is rejected.

A code is walked and validated once, by `_Geometry`, when a `DiagramCode`
is built; the geometry stays on the code and both pipelines read it from
there. The geometry holds the walk, the faces and the Seifert circles;
`checkerboard` colours the faces for itself, and `braided_path` reads the
circle order off the Seifert graph. Each Vogel move builds one new
geometry.
"""

import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress

from .braid import (
    closure_is_knot,
    collins_seifert_matrix,
    relabel_tuples,
    trace_closure_tuples,
    word_strands,
)
from .exactlin import SymIntMatrix, signature


class EmptyPDError(ValueError):
    """No crossings in the input text."""


class PDSyntaxError(ValueError):
    """Text does not match the PD grammar or violates the slot convention."""


class ArcMultiplicityError(ValueError):
    """Some arc label does not appear exactly twice."""


class MultiComponentError(ValueError):
    """The code describes a link with more than one component."""


@dataclass(frozen=True)
class DiagramCode:
    """A validated knot diagram: crossing tuples in the strict slot
    convention, with arc labels exactly 1..2n.

    The sign of every crossing and the `_Geometry` (walk, faces, circles)
    are worked out from the crossings when the code is built, so a code
    that is not a strict planar knot diagram raises a `ValueError`
    subclass then. The geometry takes no part in `==`, `hash` or `repr`."""

    crossings: tuple
    signs: tuple = field(init=False)
    _geom: "_Geometry" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tuples = tuple(map(tuple, self.crossings))
        labels, top = _validate_labels(tuples), 2 * len(tuples)
        if len(labels) != top or not all(
            isinstance(e, int) and 0 < e <= top for e in labels
        ):
            raise PDSyntaxError("arc labels are not exactly 1..%d" % top)
        geom = _Geometry(tuples)
        object.__setattr__(self, "crossings", geom.tuples)
        object.__setattr__(self, "signs", geom.signs)
        object.__setattr__(self, "_geom", geom)

    @property
    def n(self):
        return len(self.crossings)

    @property
    def writhe(self):
        return sum(self.signs)

    @classmethod
    def from_tuples(cls, tuples):
        """The code of `tuples` with their labels renamed, in order, to
        1..2n. Label ends are counted before the renaming, so that an
        error names the labels as given."""
        tuples = [tuple(t) for t in tuples]
        _validate_labels(tuples)
        return cls(relabel_tuples(tuples))

    @classmethod
    def from_braid_word(cls, word, strands=None):
        return cls(trace_closure_tuples(word, strands))

    @classmethod
    def parse(cls, text):
        return parse_pd(text)


@dataclass(frozen=True)
class GoeritzData:
    """Goeritz form of the white checkerboard surface and the half normal
    Euler number entering the signature formula."""

    matrix: SymIntMatrix
    euler_correction: int


@dataclass(frozen=True)
class SeifertData:
    """Seifert form in a band basis of the surface built by the oriented
    smoothing of a braided form of the diagram."""

    matrix: tuple


_TERM = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text):
    """Parse whitespace-separated "X(a,b,c,d)" terms into a DiagramCode."""
    if not text.strip():
        raise EmptyPDError("empty diagram code")
    tuples = []
    for m in _TERM.finditer(text):
        tuples.append(tuple(int(g) for g in m.groups()))
    residue = _TERM.sub(" ", text).strip()
    if residue:
        raise PDSyntaxError("unrecognized input near %r" % residue.split()[0])
    if any(e < 1 for t in tuples for e in t):
        raise PDSyntaxError("arc labels must be positive integers")
    return DiagramCode.from_tuples(tuples)


def pd_text(d):
    return " ".join("X(%d,%d,%d,%d)" % t for t in d.crossings)


def load_fixture_file(path):
    """Read a "name<TAB>pdcode" fixture file into an ordered dict."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, code = line.partition("\t")
            if not code:
                raise PDSyntaxError("line %d: expected name<TAB>pdcode" % lineno)
            out[name.strip()] = parse_pd(code)
    return out


def _validate_labels(tuples):
    """The labels of `tuples`, each of which must end exactly two arcs."""
    counts = Counter(chain.from_iterable(tuples))
    bad = sorted(e for e, k in counts.items() if k != 2)
    if bad:
        raise ArcMultiplicityError("arc labels without exactly two ends: %s" % bad)
    return counts


class _Geometry:
    """What one walk along the strand of a code determines: the strict
    tuples and crossing signs, the direction of every arc, the faces of
    the rotation system and the circles of the oriented smoothing. Built
    once per code, by `DiagramCode`, and once per Vogel move; the walk and
    the face count raise a `ValueError` subclass when the tuples are not a
    planar knot diagram. The circles and the crossings alone give the
    circle order of a braided diagram (`braided_path`)."""

    def __init__(self, tuples):
        self.n = len(tuples)
        if self.n == 0:
            self.tuples, self.signs = (), ()
            return
        self._walk(tuples)
        self._faces()
        self._circles()

    def _walk(self, tuples):
        # Follow the strand from the outgoing under-slot of crossing 0,
        # checking under-strand directions and reading off crossing signs.
        n = self.n
        incid = self.incid = defaultdict(list)
        for c, t in enumerate(tuples):
            for s, e in enumerate(t):
                incid[e].append((c, s))
        over_seen = set()
        head = self.head = {}
        tail = self.tail = {tuples[0][2]: (0, 2)}
        cur_edge, departure = tuples[0][2], (0, 2)
        walked = 0
        while True:
            pair = incid[cur_edge]
            arr = pair[1] if pair[0] == departure else pair[0]
            head[cur_edge] = arr
            c, s = arr
            if s == 2:
                raise PDSyntaxError(
                    "under-strand enters crossing %d at its outgoing slot" % c
                )
            if s != 0:
                if c in over_seen:
                    raise MultiComponentError("strand revisits crossing %d" % c)
                over_seen.add(c)
            walked += 1
            departure = (c, (s + 2) % 4)
            if departure == (0, 2):
                break
            cur_edge = tuples[c][departure[1]]
            tail[cur_edge] = departure
            if walked > 2 * n:
                raise MultiComponentError("strand walk does not close properly")
        if walked < 2 * n:
            raise MultiComponentError(
                "closed strand covers %d of %d arcs" % (walked, 2 * n)
            )
        self.tuples = tuple(tuples)
        # positive exactly when the over-strand enters at slot d
        self.signs = tuple(
            1 if head[t[3]] == (c, 3) else -1 for c, t in enumerate(tuples)
        )

    def _faces(self):
        # a directed arc is named by the incidence (crossing, slot) it
        # arrives at; the face traversal exits at the next slot
        # counterclockwise, keeping one fixed side of the arc, so
        # face_of[c, k] is the face at the corner between slots k and k+1
        self.face_of = {}
        self.faces = []
        for c0 in range(self.n):
            for s0 in range(4):
                if (c0, s0) in self.face_of:
                    continue
                orbit = []
                cur = (c0, s0)
                while cur not in self.face_of:
                    self.face_of[cur] = len(self.faces)
                    orbit.append(cur)
                    c, s = cur
                    out_slot = (s + 1) % 4
                    e = self.tuples[c][out_slot]
                    pair = self.incid[e]
                    cur = pair[1] if pair[0] == (c, out_slot) else pair[0]
                self.faces.append(orbit)
        if len(self.faces) != self.n + 2:
            raise PDSyntaxError(
                "rotation system has %d faces, need %d: not a planar knot diagram"
                % (len(self.faces), self.n + 2)
            )

    def _circles(self):
        # oriented smoothing: each arc's successor around its Seifert circle
        succ = {}
        succ_crossing = {}
        for c, (t, sg) in enumerate(zip(self.tuples, self.signs)):
            a, b, cc, dd = t
            if sg > 0:
                pairs = ((a, b), (dd, cc))
            else:
                pairs = ((a, dd), (b, cc))
            for e_in, e_out in pairs:
                succ[e_in] = e_out
                succ_crossing[e_in] = c
        self.succ = succ
        self.succ_crossing = succ_crossing
        circles = []
        circle_of = {}
        for e0 in sorted(succ):
            if e0 in circle_of:
                continue
            cyc = []
            e = e0
            while e not in circle_of:
                circle_of[e] = len(circles)
                cyc.append(e)
                e = succ[e]
            circles.append(cyc)
        self.circles = circles
        self.circle_of = circle_of

    def braided_path(self):
        """Circle order of a braided diagram, read off its Seifert graph
        (circles as vertices, crossings as edges), which is then a path.
        The walk starts at the end whose outside face, the one face whose
        arcs all lie on that circle, comes first in face order. Only a
        diagram without a defect is asked, so a failed check here is a
        fault of this module."""
        nbrs = defaultdict(set)
        for c, t in enumerate(self.tuples):
            ks = {self.circle_of[e] for e in t}
            if len(ks) != 2:
                raise RuntimeError("crossing %d does not join two circles" % c)
            k1, k2 = ks
            nbrs[k1].add(k2)
            nbrs[k2].add(k1)
        outside = []
        for orbit in self.faces:
            ks = {self.circle_of[self.tuples[c][s]] for c, s in orbit}
            if len(ks) == 1:
                outside.extend(ks)
        if len(outside) != 2:
            raise RuntimeError("%d faces lie on one circle, need 2" % len(outside))
        order = [outside[0]]
        while len(order) < len(self.circles):
            step = nbrs[order[-1]].difference(order[-2:])
            if len(step) != 1:
                break
            order.extend(step)
        if len(set(order)) != len(self.circles) or order[-1] != outside[1]:
            raise RuntimeError("Seifert graph is not a path between the outside faces")
        return order

    def defect(self):
        """Two arcs of one face, on distinct circles, with the face on the
        same side of both; present exactly when the diagram is not braided.
        Returns (arc_a, arc_b, side) with arc_a < arc_b."""
        for f, orbit in enumerate(self.faces):
            entries = []
            for (c, s) in orbit:
                e = self.tuples[c][s]
                side = 1 if self.head[e] == (c, s) else 0
                entries.append((side, self.circle_of[e], e))
            entries.sort()
            for i in range(len(entries) - 1):
                s1, k1, e1 = entries[i]
                s2, k2, e2 = entries[i + 1]
                if s1 == s2 and k1 != k2:
                    return min(e1, e2), max(e1, e2), s1
        return None


def checkerboard(d):
    """Goeritz form of the white surface, less the outer face's row and
    column, plus the type-II correction. The form is accumulated as rows
    of nonzeros, crossing by crossing; each diagonal entry is minus the
    sum of the rest of its row in the unreduced form."""
    g = d._geom
    if g.n == 0:
        return GoeritzData(SymIntMatrix([]), 0)
    # the face left of the walk changes colour at every crossing, and head
    # lists the arcs in walk order; a colouring that is not a checkerboard
    # leaves some crossing without a diagonal white pair
    colour = [0] * len(g.faces)
    for i, (c, s) in enumerate(g.head.values()):
        colour[g.face_of[c, (s - 1) % 4]] = i % 2
        colour[g.face_of[c, s]] = 1 - i % 2
    outer = g.face_of[0, 0]
    white = colour[outer]
    whites = [f for f in range(len(g.faces)) if colour[f] == white and f != outer]
    windex = {f: i for i, f in enumerate(whites)}
    off = defaultdict(Counter)
    correction = 0
    for c in range(d.n):
        corners = [g.face_of[c, k] for k in range(4)]
        ks = [k for k in range(4) if colour[corners[k]] == white]
        if ks == [0, 2]:
            orient = 1
        elif ks == [1, 3]:
            orient = -1
        else:
            raise PDSyntaxError("crossing %d lacks a diagonal white pair" % c)
        # the white-corner orientation is the Goeritz sign of the crossing,
        # and the crossing is type II when its sign agrees with it; each
        # other sign convention fails the cross-pipeline test battery
        if g.signs[c] == orient:
            correction -= orient
        fi, fj = corners[ks[0]], corners[ks[1]]
        if fi != fj:
            off[fi][fj] -= orient
            off[fj][fi] -= orient
    rows = []
    for f in whites:
        row = {windex[h]: x for h, x in off[f].items() if h != outer}
        row[windex[f]] = -sum(off[f].values())
        rows.append(row)
    return GoeritzData(SymIntMatrix.from_nonzeros(rows), correction)


def gl_signature(d):
    """Knot signature via the Goeritz form of the white surface."""
    data = checkerboard(d)
    return signature(data.matrix) + data.euler_correction


def _vogel_move(geom, defect):
    """One coherence move: a second Reidemeister move pushing a finger of
    the first arc across their shared face and over the second arc. The
    arc directions around the four new slots were worked out by hand from
    the two plane pictures (face left of both arcs, face right of both),
    so a new code that fails validation is a fault of this function.
    Its labels are exactly 1..2n+4, so they need no relabelling.
    Preserves the circle count; returns the geometry of the new code."""
    ea, eb, side = defect
    tuples = [list(t) for t in geom.tuples]
    base = 2 * geom.n
    a2, a3, b2, b3 = base + 1, base + 2, base + 3, base + 4
    ca, sa = geom.head[ea]
    cb, sb = geom.head[eb]
    tuples[ca][sa] = a3
    tuples[cb][sb] = b3
    a1, b1 = ea, eb
    if side == 0:
        xa, xb = (b2, a2, b3, a1), (b1, a2, b2, a3)
    else:
        xa, xb = (b2, a1, b3, a2), (b1, a3, b2, a2)
    tuples = [tuple(t) for t in tuples] + [xa, xb]
    try:
        _validate_labels(tuples)
        return _Geometry(tuples)
    except ValueError as err:
        raise RuntimeError("coherence move made an invalid code: %s" % err) from err


def braid_word(d):
    """Braid word whose trace closure is the given knot, via coherence
    moves followed by reading the braid off the circle order."""
    geom = d._geom
    if geom.n == 0:
        return []
    cap = d.n * d.n + 8 * d.n + 64
    for _ in range(cap):
        defect = geom.defect()
        if defect is None:
            break
        before = len(geom.circles)
        geom = _vogel_move(geom, defect)
        if len(geom.circles) != before:
            raise RuntimeError("coherence move changed the circle count")
    else:
        raise RuntimeError("coherence moves did not terminate")
    order = geom.braided_path()
    pos = {k: i + 1 for i, k in enumerate(order)}

    # seam: one arc per circle, consecutive seam arcs bordering a shared
    # face, so cutting along them unrolls the diagram into an open braid;
    # of the two faces beside a seam arc only the one toward the next
    # circle has arcs on it
    seam = [min(geom.circles[order[0]])]
    for k in order[1:]:
        e = seam[-1]
        candidates = [
            geom.tuples[c][s]
            for f in (geom.face_of[geom.head[e]], geom.face_of[geom.tail[e]])
            for (c, s) in geom.faces[f]
            if geom.circle_of[geom.tuples[c][s]] == k
        ]
        if not candidates:
            raise RuntimeError("seam cannot reach the next circle")
        seam.append(min(candidates))

    chains = []
    for i, k in enumerate(order):
        e0 = seam[i]
        chain = []
        e = e0
        while True:
            chain.append(geom.succ_crossing[e])
            e = geom.succ[e]
            if e == e0:
                break
        chains.append(chain)

    nxt = defaultdict(list)
    indeg = defaultdict(int)
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            nxt[a].append(b)
            indeg[b] += 1
    ready = [c for c in range(geom.n) if indeg[c] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        c = heapq.heappop(ready)
        out.append(c)
        for b in nxt[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, b)
    if len(out) != geom.n:
        raise RuntimeError("crossing order around the braid axis is cyclic")

    letters = []
    for c in out:
        t = geom.tuples[c]
        ks = sorted({pos[geom.circle_of[e]] for e in t})
        if len(ks) != 2 or ks[1] != ks[0] + 1:
            raise RuntimeError("crossing joins non-adjacent circles")
        letters.append(geom.signs[c] * ks[0])
    strands = len(order)
    if word_strands(letters) != strands or not closure_is_knot(letters, strands):
        raise RuntimeError("extracted word is not a knot braid on all strands")
    return letters


def seifert_matrix(d):
    """Seifert form of the surface from the oriented smoothing of a
    braided form of the diagram, in the consecutive-band loop basis."""
    word = braid_word(d)
    v = collins_seifert_matrix(word)
    return SeifertData(tuple(tuple(row) for row in v))


def seifert_signature(d):
    """Knot signature as the signature of V + V^T."""
    v = seifert_matrix(d).matrix
    sym = [defaultdict(int) for _ in v]
    for i, row in enumerate(v):
        for j in compress(range(len(row)), row):
            sym[i][j] += row[j]
            sym[j][i] += row[j]
    return signature(SymIntMatrix.from_nonzeros(sym))


def mirror_diagram(d):
    """Swap over- and under-strands everywhere (all signs flip)."""
    out = []
    for t, sg in zip(d.crossings, d.signs):
        a, b, c, dd = t
        if sg > 0:
            out.append((dd, a, b, c))
        else:
            out.append((b, c, dd, a))
    return DiagramCode(out)


def insert_kink(d, sign=1, edge=None):
    """Add a one-crossing curl of the given sign on an arc (the smallest
    label by default)."""
    if d.n == 0:
        t = (1, 1, 2, 2) if sign > 0 else (1, 2, 2, 1)
        return DiagramCode([t])
    geom = d._geom
    if edge is None:
        edge = min(geom.incid)
    if edge not in geom.incid:
        raise ValueError("no arc labelled %r" % (edge,))
    c, s = geom.head[edge]
    tuples = [list(t) for t in d.crossings]
    e2, x = 2 * d.n + 1, 2 * d.n + 2
    tuples[c][s] = e2
    if sign > 0:
        tuples.append((edge, e2, x, x))
    else:
        tuples.append((edge, x, x, e2))
    return DiagramCode(tuples)
