"""Diagram and braid helpers that only the tests and scripts/make_corpus.py
use: plat closures, random knot words, mirrors, kinks and the fixture-file
reader. The package's own pipelines never call them."""

from knotsig.braid import closure_is_knot, word_strands
from knotsig.diagram import DiagramCode, PDSyntaxError, parse_pd, relabel_tuples
from oracles import letter_tuples


def plat_closure_tuples(word, strands=None):
    """PD tuples of the plat closure, in the strict convention: caps join
    positions (1,2), (3,4), ... at both ends. Plat strands alternate
    direction, so the closure is walked once from crossing 0 as written and
    every crossing whose under-strand the walk enters at slot 2 is turned by
    two slots; crossings off the walked component of a link stay as built.
    The strand count defaults to the word's own and may exceed it.
    """
    need = word_strands(word)
    if strands is None:
        strands = need
    elif strands < need:
        raise ValueError("word needs %d strands, more than %d" % (need, strands))
    if strands % 2:
        raise ValueError("plat closure needs an even strand count")
    tuples, top = letter_tuples(word, strands)

    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for k in range(0, strands, 2):
        union(k + 1, k + 2)
        union(top[k], top[k + 1])
    out = relabel_tuples([tuple(find(e) for e in t) for t in tuples])
    if not out:
        return out
    ends = {}
    for c, t in enumerate(out):
        for s, e in enumerate(t):
            ends.setdefault(e, []).append((c, s))
    turned, departure = set(), (0, 2)
    while True:
        pair = ends[out[departure[0]][departure[1]]]
        c, s = pair[1] if pair[0] == departure else pair[0]
        if s == 2:
            turned.add(c)
        departure = (c, (s + 2) % 4)
        if departure == (0, 2):
            break
    return [t[2:] + t[:2] if c in turned else t for c, t in enumerate(out)]


def random_knot_word(rng, strands, length, max_tries=20000):
    """Random word of the given length whose trace closure is a knot;
    deterministic for a seeded rng. Letters are transpositions, so the
    closure can only be a knot when length and strands-1 have equal parity.
    """
    if strands < 2:
        raise ValueError("need at least 2 strands")
    if (length - (strands - 1)) % 2:
        raise ValueError("no knot closures: length %d has wrong parity for %d strands" % (length, strands))
    for _ in range(max_tries):
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        if word_strands(word) == strands and closure_is_knot(word):
            return word
    raise RuntimeError("no knot closure found; implausible parameters")


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
    if edge is None:
        edge = 1
    if not (isinstance(edge, int) and 1 <= edge <= 2 * d.n):
        raise ValueError("no arc labelled %r" % (edge,))
    c, s = divmod(d._geom.head[edge], 4)
    tuples = [list(t) for t in d.crossings]
    e2, x = 2 * d.n + 1, 2 * d.n + 2
    tuples[c][s] = e2
    if sign > 0:
        tuples.append((edge, e2, x, x))
    else:
        tuples.append((edge, x, x, e2))
    return DiagramCode(tuples)


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
