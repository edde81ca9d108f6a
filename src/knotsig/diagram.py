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

A code is walked and validated once, by `_Geometry`, when
`DiagramCode.from_tuples` builds it; the geometry stays on the code and
both pipelines read it from there. Each Vogel move builds one new code.
"""

import heapq
import re
from collections import defaultdict
from dataclasses import dataclass

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
    convention plus the resolved sign of every crossing.

    `from_tuples` keeps the `_Geometry` it validated the code with as the
    attribute `_geom`. It is not a field, so it takes no part in `==`,
    `hash` or `repr`."""

    crossings: tuple
    signs: tuple

    @property
    def n(self):
        return len(self.crossings)

    @property
    def writhe(self):
        return sum(self.signs)

    @classmethod
    def from_tuples(cls, tuples):
        _validate_labels(tuples)
        geom = _Geometry(relabel_tuples([tuple(t) for t in tuples]))
        code = cls(geom.tuples, geom.signs)
        object.__setattr__(code, "_geom", geom)
        return code

    @classmethod
    def from_braid_word(cls, word, strands=None):
        return cls.from_tuples(trace_closure_tuples(word, strands))

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
    counts = defaultdict(int)
    for t in tuples:
        for e in t:
            counts[e] += 1
    bad = sorted(e for e, k in counts.items() if k != 2)
    if bad:
        raise ArcMultiplicityError("arc labels without exactly two ends: %s" % bad)


def _geometry(d):
    """The geometry of a code. One made by `from_tuples` carries it; a code
    built directly from crossings and signs is checked on first use and
    must be exactly what `from_tuples` makes of its crossings."""
    geom = getattr(d, "_geom", None)
    if geom is None:
        made = DiagramCode.from_tuples(d.crossings)
        if made != d:
            raise PDSyntaxError("stored crossings or signs disagree with the strand walk")
        geom = made._geom
        object.__setattr__(d, "_geom", geom)
    return geom


class _Geometry:
    """Everything derived from one walk along the strand of a code: the
    strict tuples and crossing signs, the direction of every arc, faces of
    the rotation system, checkerboard colours and the oriented smoothing
    (circles and regions). Built once per code, by `from_tuples`; each
    step raises a `ValueError` subclass when the tuples are not a planar
    knot diagram."""

    def __init__(self, tuples):
        self.n = len(tuples)
        if self.n == 0:
            self.tuples, self.signs = (), ()
            return
        self._walk(tuples)
        self._faces()
        self._colour()
        self._smooth()

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
        # counterclockwise, keeping one fixed side of the arc
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

    def corner(self, c, k):
        """Face at the corner between slots k and k+1 of crossing c."""
        return self.face_of[(c, k)]

    def _colour(self):
        adj = defaultdict(set)
        for e, pair in self.incid.items():
            f1, f2 = self.face_of[pair[0]], self.face_of[pair[1]]
            adj[f1].add(f2)
            adj[f2].add(f1)
        colour = [None] * len(self.faces)
        colour[0] = 0
        queue = [0]
        while queue:
            f = queue.pop()
            for g in adj[f]:
                if colour[g] is None:
                    colour[g] = 1 - colour[f]
                    queue.append(g)
                elif colour[g] == colour[f]:
                    raise PDSyntaxError("faces are not checkerboard colourable")
        if any(c is None for c in colour):
            raise PDSyntaxError("disconnected face graph")
        self.colour = colour
        self.outer_face = self.corner(0, 0)

    def _smooth(self):
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

        parent = list(range(len(self.faces)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c, sg in enumerate(self.signs):
            if sg > 0:
                a, b = self.corner(c, 1), self.corner(c, 3)
            else:
                a, b = self.corner(c, 0), self.corner(c, 2)
            parent[find(a)] = find(b)
        self.region_of = [find(f) for f in range(len(self.faces))]
        regions = sorted(set(self.region_of))
        if len(regions) != len(circles) + 1:
            raise PDSyntaxError(
                "smoothing produced %d regions for %d circles"
                % (len(regions), len(circles))
            )
        # sides: region to the right of an arc is the faceAT its head
        # incidence, the left one sits at its tail incidence
        self.side = []  # per circle: (left_region, right_region)
        for cyc in circles:
            lefts = {self.region_of[self.face_of[self.tail[e]]] for e in cyc}
            rights = {self.region_of[self.face_of[self.head[e]]] for e in cyc}
            if len(lefts) != 1 or len(rights) != 1:
                raise PDSyntaxError("smoothed circle borders inconsistent regions")
            left, right = lefts.pop(), rights.pop()
            if left == right:
                raise PDSyntaxError("smoothed circle borders one region twice")
            self.side.append((left, right))
        self.region_touches = defaultdict(list)  # region -> [(circle, side)]
        for k, (left, right) in enumerate(self.side):
            self.region_touches[left].append((k, 0))
            self.region_touches[right].append((k, 1))

    def braided_path(self):
        """Circle and region order of a coherent diagram: the incidence
        path r0, c0, r1, c1, ..., or None when the diagram is not braided.
        Returns (circle_order, region_order)."""
        deg1 = [r for r, inc in self.region_touches.items() if len(inc) == 1]
        if any(len(inc) > 2 for inc in self.region_touches.values()):
            return None
        if len(deg1) != 2:
            return None
        for inc in self.region_touches.values():
            if len(inc) == 2 and inc[0][1] == inc[1][1]:
                return None
        start = min(deg1)
        circle_order = []
        region_order = [start]
        region, seen = start, set()
        while True:
            nxt = [k for k, _ in self.region_touches[region] if k not in seen]
            if not nxt:
                break
            k = nxt[0]
            seen.add(k)
            circle_order.append(k)
            left, right = self.side[k]
            region = right if region == left else left
            region_order.append(region)
        if len(circle_order) != len(self.circles):
            return None
        return circle_order, region_order

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
    """Goeritz matrix of the white surface plus the type-II correction."""
    g = _geometry(d)
    if g.n == 0:
        return GoeritzData(SymIntMatrix([]), 0)
    white = g.colour[g.outer_face]
    whites = [f for f in range(len(g.faces)) if g.colour[f] == white]
    windex = {f: i for i, f in enumerate(whites)}
    m = [[0] * len(whites) for _ in whites]
    correction = 0
    for c in range(d.n):
        corners = [g.corner(c, k) for k in range(4)]
        ks = [k for k in range(4) if g.colour[corners[k]] == white]
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
        wi, wj = windex[corners[ks[0]]], windex[corners[ks[1]]]
        if wi != wj:
            m[wi][wj] -= orient
            m[wj][wi] -= orient
    for i in range(len(whites)):
        m[i][i] = -sum(m[i][j] for j in range(len(whites)) if j != i)
    drop = windex[g.outer_face]
    reduced = [
        [m[i][j] for j in range(len(whites)) if j != drop]
        for i in range(len(whites))
        if i != drop
    ]
    return GoeritzData(SymIntMatrix(reduced), correction)


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
    try:
        code = DiagramCode.from_tuples([tuple(t) for t in tuples] + [xa, xb])
    except ValueError as err:
        raise RuntimeError("coherence move made an invalid code: %s" % err) from err
    return code._geom


def braid_word(d):
    """Braid word whose trace closure is the given knot, via coherence
    moves followed by reading the braid off the circle order."""
    geom = _geometry(d)
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
    path = geom.braided_path()
    if path is None:
        raise RuntimeError("diagram without a defect is not braided")
    order, regions = path
    pos = {k: i + 1 for i, k in enumerate(order)}

    # seam: one arc per circle, consecutive seam arcs bordering a shared
    # face, so cutting along them unrolls the diagram into an open braid
    seam = [min(geom.circles[order[0]])]
    for i in range(len(order) - 1):
        e = seam[-1]
        between = regions[i + 1]  # region between circles order[i], order[i+1]
        head_face = geom.face_of[geom.head[e]]
        tail_face = geom.face_of[geom.tail[e]]
        face = head_face if geom.region_of[head_face] == between else tail_face
        if geom.region_of[face] != between:
            raise RuntimeError("seam face lookup failed")
        candidates = [
            geom.tuples[c][s]
            for (c, s) in geom.faces[face]
            if geom.circle_of[geom.tuples[c][s]] == order[i + 1]
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
    sym = [[v[i][j] + v[j][i] for j in range(len(v))] for i in range(len(v))]
    return signature(SymIntMatrix(sym))


def mirror_diagram(d):
    """Swap over- and under-strands everywhere (all signs flip)."""
    out = []
    for t, sg in zip(d.crossings, d.signs):
        a, b, c, dd = t
        if sg > 0:
            out.append((dd, a, b, c))
        else:
            out.append((b, c, dd, a))
    return DiagramCode.from_tuples(out)


def insert_kink(d, sign=1, edge=None):
    """Add a one-crossing curl of the given sign on an arc (the smallest
    label by default)."""
    if d.n == 0:
        t = (1, 1, 2, 2) if sign > 0 else (1, 2, 2, 1)
        return DiagramCode.from_tuples([t])
    geom = _geometry(d)
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
    return DiagramCode.from_tuples(tuples)
