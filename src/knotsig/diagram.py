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
there. The geometry works on flat integer lists indexed by incidence
i = 4c + s, slot s of crossing c. One pass over the labels checks them
and pairs the two ends of every arc (`other[i]`); `parse_pd`, which has
already read the labels as integers in 1..2n, hands its flat list over
and only the pairing runs. The walk along the strand is then the cycle
of i -> other[i ^ 2] and the faces are the cycles of
i -> other[(i & ~3) | ((i + 1) & 3)], kept as the face of every corner
and a face count. The Seifert circle of every arc is worked out on first
read, since only the Seifert side reads it. Each Vogel move builds one new
geometry: it pairs again only the ends of the six arcs it touches, takes
every other pair from its parent, and then walks the strand and numbers
the faces in full. `braid_word` reads the circle order of the braided
diagram off its seam, which steps from circle to circle across shared
faces.

`checkerboard` colours the faces for itself, from the walk alone: the face
left of the walk changes colour at every crossing, so the even and the odd
arrivals (`walk[0::2]`, `walk[1::2]`) each colour the faces on their two
sides, one colour left and the other right. A crossing's white pair is
then read off the colours of its four corners, and the form is summed on
lists indexed by face, one dict of nonzeros per white face.
"""

import heapq
import re
from collections import Counter, defaultdict
from functools import cached_property
from itertools import chain

from ._record import Record
from .braid import (
    MAX_BRAID_LETTERS,
    closure_is_knot,
    collins_seifert_matrix,
    trace_closure_tuples,
    word_strands,
)
from .exactlin import SymIntMatrix, signature


class EmptyPDError(ValueError):
    """No crossings in the input text."""


class PDSyntaxError(ValueError):
    """Text does not match the PD grammar or violates the slot convention."""


class PDSizeError(ValueError):
    """More crossings in the input text than MAX_PD_CROSSINGS."""


class ArcMultiplicityError(ValueError):
    """Some arc label does not appear exactly twice."""


class MultiComponentError(ValueError):
    """The code describes a link with more than one component."""


class DiagramCode(Record):
    """A validated knot diagram: crossing tuples in the strict slot
    convention, with arc labels exactly 1..2n.

    The sign of every crossing and the `_Geometry` (walk, faces) are
    worked out from the crossings when the code is built, so a code
    that is not a strict planar knot diagram raises a `ValueError`
    subclass then. The geometry takes no part in `==`, `hash` or `repr`."""

    _fields = ("crossings", "signs")
    __slots__ = _fields + ("_geom",)

    def __init__(self, crossings):
        self._adopt(_Geometry(tuple(map(tuple, crossings))))

    def _adopt(self, geom):
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
        """The code of `tuples` with positive integer labels renamed, in
        order, to 1..2n, unless the least is 1 and the greatest 2n. Any
        other labels (strings, floats, integers below 1) are kept, so they
        raise as in `DiagramCode(tuples)`. Label ends are counted before
        any renaming, so that an error names them as given."""
        tuples = [tuple(t) for t in tuples]
        labels = list(chain.from_iterable(tuples))
        if labels and all(issubclass(t, int) for t in set(map(type, labels))):
            least = min(labels)
            if least >= 1 and (least != 1 or max(labels) != 2 * len(tuples)):
                error = _label_error(tuples)
                if isinstance(error, ArcMultiplicityError):
                    raise error
                tuples = relabel_tuples(tuples)
        return cls(tuples)

    @classmethod
    def _read(cls, tuples, labels):
        """The code of `tuples`, whose flat labels `labels` are integers
        already known to lie in 1..2n: its geometry pairs them without
        scanning them again. `parse_pd` builds codes so."""
        code = cls.__new__(cls)
        code._adopt(_Geometry(tuples, labels=labels))
        return code

    @classmethod
    def from_braid_word(cls, word):
        return cls(trace_closure_tuples(word))

    @classmethod
    def parse(cls, text):
        return parse_pd(text)


class GoeritzData(Record):
    """Goeritz form of the white checkerboard surface and the half normal
    Euler number entering the signature formula."""

    __slots__ = _fields = ("matrix", "euler_correction")

    def __init__(self, matrix, euler_correction):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "euler_correction", euler_correction)


_TERM = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")
# a term, or else the first character outside whitespace and terms
_TOKEN = re.compile(r"\s*(?:" + _TERM.pattern + r"|(\S))")


# The largest code parse_pd reads, counted before any tuple is built: the
# largest the package builds itself, a closure of MAX_BRAID_LETTERS letters.
# The twist hub at q = 19,999 written as a PD file (119,996 crossings) took
# 1.8-2.5 s and 148 MB in `signature --method gl` and 3.5-5.2 s and 260 MB
# with --method seifert, as fresh processes on a shared 2-core Xeon.
MAX_PD_CROSSINGS = MAX_BRAID_LETTERS


def parse_pd(text):
    """Parse whitespace-separated "X(a,b,c,d)" terms into a DiagramCode.
    Text with more than MAX_PD_CROSSINGS terms raises PDSizeError before
    any is read."""
    count = text.count("X(")
    if count > MAX_PD_CROSSINGS:
        raise PDSizeError(
            "diagram code has %d crossings, more than the limit of %d"
            % (count, MAX_PD_CROSSINGS)
        )
    labels = []
    for a, b, c, d, bad in _TOKEN.findall(text):
        if bad:
            # the residue left by the terms starts at the first such character
            residue = _TERM.sub(" ", text).split()
            raise PDSyntaxError("unrecognized input near %r" % residue[0])
        labels += (int(a), int(b), int(c), int(d))
    if not labels:
        raise EmptyPDError("empty diagram code")
    least = min(labels)
    if least < 1:
        raise PDSyntaxError("arc labels must be positive integers")
    tuples = tuple(zip(*[iter(labels)] * 4))
    # labels 1..2n are kept as read, and the geometry pairs them without
    # scanning them again; only other codes are renamed
    if least == 1 and max(labels) == 2 * len(tuples):
        return DiagramCode._read(tuples, labels)
    return DiagramCode.from_tuples(tuples)


def pd_text(d):
    return ("X(%d,%d,%d,%d) " * d.n)[:-1] % tuple(d._geom.labels)


def _check_label_range(tuples, labels):
    """Raise `_label_error` unless every crossing has four slots and every
    label is an integer in 1..2n."""
    if tuples and (
        set(map(len, tuples)) != {4}
        or not all(issubclass(t, int) for t in set(map(type, labels)))
        or min(labels) < 1
        or max(labels) > 2 * len(tuples)
    ):
        raise _label_error(tuples)


def _arc_ends(tuples, labels):
    """other[i] for every incidence i = 4c + s: the incidence at the other
    end of the arc at slot s of crossing c, for integer labels in 1..2n.
    The same pass checks that each label has exactly two ends; a fault is
    reported as `_label_error` finds it."""
    first = [-1] * (2 * len(tuples) + 1)
    other = [-1] * len(labels)
    for i, e in enumerate(labels):
        j = first[e]
        if j < 0:
            first[e] = i
        elif other[j] < 0:
            other[i] = j
            other[j] = i
        else:
            raise _label_error(tuples)
    # 4n ends on 2n labels, none with a third end: each has exactly two
    return other


def relabel_tuples(tuples):
    """Rename edge labels order-preservingly to 1..2n."""
    labels = sorted({e for t in tuples for e in t})
    remap = {e: i + 1 for i, e in enumerate(labels)}
    return [tuple(remap[e] for e in t) for t in tuples]


def _label_error(tuples):
    """The error for crossings whose labels are not exactly 1..2n, each at
    two ends: every label without two ends, as given, or else the range.
    Labels that cannot be counted or ordered are not integers."""
    try:
        counts = Counter(chain.from_iterable(tuples))
        bad = sorted(e for e, k in counts.items() if k != 2)
    except TypeError:
        return PDSyntaxError("arc labels must be integers")
    if bad:
        return ArcMultiplicityError("arc labels without exactly two ends: %s" % bad)
    return PDSyntaxError("arc labels are not exactly 1..%d" % (2 * len(tuples)))


class _Geometry:
    """What one walk along the strand of a code determines, on flat integer
    lists. Incidence i = 4c + s is slot s of crossing c: `labels[i]` is
    its arc label and `other[i]` the incidence at the other end of that
    arc, both filled by one pass that also checks the labels.

    - The walk is the cycle of i -> other[i ^ 2] (arrive at a slot, leave
      by the opposite one) from other[2], the arc leaving crossing 0 along
      its under-strand. `walk` lists the arrival incidences in walk order,
      and `head[e]` is the one where arc e arrives, so it leaves at
      `other[head[e]]`. The walk gives the crossing signs, and raises a
      `ValueError` subclass unless the code is a strict knot diagram.
    - The faces are the cycles of i -> other[(i & ~3) | ((i + 1) & 3)]
      (leave by the next slot counterclockwise, keeping the face on one
      side), numbered in order of their least i. `face_of[4c + k]` is the
      face at the corner between slots k and k + 1, and `face_count` is
      the number of faces; a planar code has n + 2.
    - The Seifert circle of every arc of the oriented smoothing
      (`circle_of`, indexed by arc label) is worked out on first read, as
      only the Seifert side reads it. Circles are numbered in order of
      their least label; `_circle` walks one.

    Built once per code, by `DiagramCode`; `parse_pd` passes `labels`,
    the flat list it has read and found to be integers in 1..2n, so only
    the pairing checks them. Built once per Vogel move, which passes
    `other`: its parent's pairs, with the ends it touched checked and
    paired again, so the other labels keep the check of the build they
    came from."""

    def __init__(self, tuples, other=None, labels=None):
        self.n = len(tuples)
        self.tuples = tuple(tuples)
        if labels is None:
            labels = list(chain.from_iterable(tuples))
            if other is None:
                _check_label_range(tuples, labels)
        self.labels = labels
        self.other = _arc_ends(tuples, labels) if other is None else other
        if self.n == 0:
            self.signs = ()
            return
        self._walk()
        self._faces()

    def _walk(self):
        n, other = self.n, self.other
        signs = [0] * n
        walk = []
        a = other[2]
        while a:
            walk.append(a)
            s = a & 3
            if s == 2:
                raise PDSyntaxError(
                    "under-strand enters crossing %d at its outgoing slot" % (a >> 2)
                )
            if s:
                # positive exactly when the over-strand enters at slot d. No
                # over-strand is entered twice before the walk fails or
                # ends: the second entry would follow an arrival at the slot
                # opposite one already reached, which is a slot-2 arrival,
                # the end at slot 0 of crossing 0 or an earlier second entry
                signs[a >> 2] = s - 2
            a = other[a ^ 2]
        walk.append(0)
        if len(walk) < 2 * n:
            raise MultiComponentError(
                "closed strand covers %d of %d arcs" % (len(walk), 2 * n)
            )
        self.walk = walk
        self.signs = tuple(signs)
        head = self.head = [0] * (2 * n + 1)
        labels = self.labels
        for a in walk:
            head[labels[a]] = a

    def _faces(self):
        other = self.other
        m = len(other)
        # nxt[i] = other[next slot counterclockwise from i]
        nxt = [0] * m
        nxt[0::4], nxt[1::4], nxt[2::4], nxt[3::4] = (
            other[1::4], other[2::4], other[3::4], other[0::4]
        )
        face_of = [-1] * m
        count = 0
        for i0 in range(m):
            if face_of[i0] < 0:
                i = i0
                while face_of[i] < 0:
                    face_of[i] = count
                    i = nxt[i]
                count += 1
        if count != self.n + 2:
            raise PDSyntaxError(
                "rotation system has %d faces, need %d: not a planar knot diagram"
                % (count, self.n + 2)
            )
        self.face_of = face_of
        self.face_count = count

    def _circle(self, e0):
        """The arcs of arc e0's Seifert circle, in order from e0. The circle
        goes on from the under-strand to the outgoing over-slot (1 at a
        positive crossing, 3 at a negative one) and from the over-strand to
        slot 2; the crossing after arc e is `head[e] >> 2`."""
        labels, head, signs = self.labels, self.head, self.signs
        e = e0
        while True:
            yield e
            a = head[e]
            c = a >> 2
            e = labels[4 * c + (2 if a & 3 else 2 - signs[c])]
            if e == e0:
                return

    @cached_property
    def circle_of(self):
        """circle_of[e]: the Seifert circle of arc e, circles numbered in
        order of their least arc."""
        circle_of = [-1] * len(self.head)
        count = 0
        for e0 in range(1, len(circle_of)):
            if circle_of[e0] < 0:
                for e in self._circle(e0):
                    circle_of[e] = count
                count += 1
        return circle_of

    def defect(self):
        """Two arcs of one face, on distinct circles, with the face on the
        same side of both; present exactly when the diagram is not braided.
        Returns (arc_a, arc_b, side) with arc_a < arc_b.

        key[i] is twice the circle of incidence i's arc, plus 1 where i is
        the arc's arrival, so a face has such a pair exactly when two of its
        keys differ and have one parity. One pass over `face_of` keeps each
        face's first key of each parity and finds the least face with
        another; only that face's incidences are sorted to find the pair."""
        labels, head, circle_of, face_of = (
            self.labels, self.head, self.circle_of, self.face_of
        )
        key = [2 * circle_of[e] for e in labels]
        for a in self.walk:
            key[a] += 1
        first = [-1] * (2 * self.face_count)
        bad = self.face_count
        for f, k in zip(face_of, key):
            j = 2 * f + (k & 1)
            if first[j] < 0:
                first[j] = k
            elif first[j] != k and f < bad:
                bad = f
        if bad == self.face_count:
            return None
        entries = []
        for i, f in enumerate(face_of):
            if f == bad:
                e = labels[i]
                entries.append((1 if head[e] == i else 0, circle_of[e], e))
        entries.sort()
        for (s1, k1, e1), (s2, k2, e2) in zip(entries, entries[1:]):
            if s1 == s2 and k1 != k2:
                return min(e1, e2), max(e1, e2), s1


def checkerboard(d):
    """Goeritz form of the white surface, less the outer face's row and
    column, plus the type-II correction. The form is accumulated as rows
    of nonzeros, crossing by crossing, on lists indexed by face; each
    diagonal entry is minus the sum of the rest of its row in the
    unreduced form."""
    g = d._geom
    if g.n == 0:
        return GoeritzData(SymIntMatrix([]), 0)
    # the face left of the walk changes colour at every crossing; at an
    # arrival a = 4c + s it is the corner between slots s - 1 and s, and
    # the face right of the walk the one between s and s + 1. A colouring
    # that is not a checkerboard leaves some crossing without a diagonal
    # white pair
    face_of, walk = g.face_of, g.walk
    colour = [0] * g.face_count
    for x, arrivals in ((0, walk[0::2]), (1, walk[1::2])):
        for a in arrivals:
            colour[face_of[(a & ~3) | ((a - 1) & 3)]] = x
            colour[face_of[a]] = 1 - x
    outer = face_of[0]
    white = colour[outer]
    # row[f]: the row of white face f; -1 for the outer face, whose row
    # and column are dropped, and for the black faces
    row = [-1] * len(colour)
    size = 0
    for f, x in enumerate(colour):
        if x == white and f != outer:
            row[f] = size
            size += 1
    is_white = [x == white for x in colour]
    rows = [{} for _ in range(size)]
    # diag[-1] gathers the outer face's diagonal, which is dropped
    diag = [0] * (size + 1)
    correction = 0
    corners = zip(g.signs, face_of[0::4], face_of[1::4], face_of[2::4], face_of[3::4])
    for c, (sign, f0, f1, f2, f3) in enumerate(corners):
        w0, w1, w2, w3 = is_white[f0], is_white[f1], is_white[f2], is_white[f3]
        if w0 and w2 and not (w1 or w3):
            orient, fi, fj = 1, f0, f2
        elif w1 and w3 and not (w0 or w2):
            orient, fi, fj = -1, f1, f3
        else:
            raise PDSyntaxError("crossing %d lacks a diagonal white pair" % c)
        # the white-corner orientation is the Goeritz sign of the crossing,
        # and the crossing is type II when its sign agrees with it; each
        # other sign convention fails the cross-pipeline test battery
        if sign == orient:
            correction -= orient
        if fi != fj:
            i, j = row[fi], row[fj]
            diag[i] += orient
            diag[j] += orient
            if i >= 0 and j >= 0:
                rows[i][j] = rows[i].get(j, 0) - orient
                rows[j][i] = rows[j].get(i, 0) - orient
    for i, r in enumerate(rows):
        r[i] = diag[i]
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

    The move rewrites the arrival slots of the two arcs and adds eight
    incidences, so only the ten ends of its six labels (the two arcs and
    the four new ones) are paired again; every other arc keeps the ends
    checked when the parent was built. Preserves the circle count; returns
    the geometry of the new code."""
    ea, eb, side = defect
    n = geom.n
    a2, a3, b2, b3 = 2 * n + 1, 2 * n + 2, 2 * n + 3, 2 * n + 4
    a1, b1 = ea, eb
    if side == 0:
        xa, xb = (b2, a2, b3, a1), (b1, a2, b2, a3)
    else:
        xa, xb = (b2, a1, b3, a2), (b1, a3, b2, a2)
    tuples = list(geom.tuples)
    ia, ib = geom.head[ea], geom.head[eb]
    for i, e in ((ia, a3), (ib, b3)):
        c, s = i >> 2, i & 3
        t = tuples[c]
        tuples[c] = t[:s] + (e,) + t[s + 1:]
    tuples += (xa, xb)
    other = geom.other + [-1] * 8
    ends = defaultdict(list)
    for i in (ia, ib, other[ia], other[ib], *range(4 * n, 4 * n + 8)):
        ends[tuples[i >> 2][i & 3]].append(i)
    try:
        for pair in ends.values():
            if len(pair) != 2:
                raise _label_error(tuples)
            i, j = pair
            other[i] = j
            other[j] = i
        return _Geometry(tuples, other)
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
        before = max(geom.circle_of)
        geom = _vogel_move(geom, defect)
        if max(geom.circle_of) != before:
            raise RuntimeError("coherence move changed the circle count")
    else:
        raise RuntimeError("coherence moves did not terminate")

    # seam: one arc per circle, consecutive seam arcs bordering a shared
    # face, so cutting along them unrolls the diagram into an open braid.
    # The circles of a braided diagram are nested: each face lies between
    # two consecutive circles, or inside the innermost or outside the
    # outermost, on one circle only. The seam starts at the circle of the
    # first one-circle face in face order, and the next circle is the one
    # circle in the two faces beside the last seam arc that is not among
    # the last two on the seam. Only a diagram without a defect gets here,
    # so a failed check is a fault of this module
    labels, head, circle_of, face_of = (
        geom.labels, geom.head, geom.circle_of, geom.face_of
    )
    arcs = [[] for _ in range(geom.face_count)]
    for i, f in enumerate(face_of):
        arcs[f].append(labels[i])
    outside = []
    for face in arcs:
        ks = {circle_of[e] for e in face}
        if len(ks) == 1:
            outside.extend(ks)
    if len(outside) != 2:
        raise RuntimeError("%d faces lie on one circle, need 2" % len(outside))
    count = max(circle_of) + 1
    order = [outside[0]]
    seam = [circle_of.index(outside[0])]
    while len(order) < count:
        a = head[seam[-1]]
        near = arcs[face_of[a]] + arcs[face_of[geom.other[a]]]
        step = {circle_of[e] for e in near}.difference(order[-2:])
        if len(step) != 1:
            raise RuntimeError("seam finds %d new circles, need 1" % len(step))
        (k,) = step
        order.append(k)
        seam.append(min(e for e in near if circle_of[e] == k))
    if len(set(order)) != count or order[-1] != outside[1]:
        raise RuntimeError("seam does not pass every circle between the outside faces")
    pos = {k: i + 1 for i, k in enumerate(order)}
    chains = [[head[e] >> 2 for e in geom._circle(e0)] for e0 in seam]

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
        ks = sorted({pos[circle_of[e]] for e in geom.tuples[c]})
        if len(ks) != 2 or ks[1] != ks[0] + 1:
            raise RuntimeError("crossing joins non-adjacent circles")
        letters.append(geom.signs[c] * ks[0])
    if word_strands(letters) != count or not closure_is_knot(letters):
        raise RuntimeError("extracted word is not a knot braid on all strands")
    return letters


def seifert_matrix(d):
    """Seifert form V of the surface from the oriented smoothing of a
    braided form of the diagram, in the consecutive-band loop basis, as rows
    of nonzeros (`[]` for the unknot)."""
    return collins_seifert_matrix(braid_word(d))


def seifert_signature(d):
    """Knot signature as the signature of V + V^T, summed from V's nonzeros."""
    v = seifert_matrix(d)
    sym = [dict(row) for row in v]
    for i, row in enumerate(v):
        for j, x in row.items():
            sym[j][i] = sym[j].get(i, 0) + x
    return signature(SymIntMatrix.from_nonzeros(sym))
