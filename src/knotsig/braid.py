"""Braid words, their closures as PD tuples, and braid Seifert matrices.

A braid word is a list of nonzero signed integers: letter +i crosses strand
position i over position i+1 (left over right, both oriented upward), -i is
the inverse. Positions are 1-based, words act bottom to top.

PD tuples are (a, b, c, d): counterclockwise from the incoming under-strand,
so the under-strand runs a -> c and the over-strand occupies b and d. With
all strands upward, a positive letter has the over-strand running d -> b and
a negative letter b -> d.
"""


def word_strands(word):
    """Smallest strand count carrying the word (one more than the largest
    generator index); the empty word needs one strand."""
    if any(x == 0 for x in word):
        raise ValueError("braid letters must be nonzero integers")
    if not word:
        return 1
    return max(abs(x) for x in word) + 1


def word_permutation(word, strands=None):
    """Permutation induced on strand positions, as a tuple p with
    p[bottom_position] = top_position (0-based)."""
    strands = strands or word_strands(word)
    pos = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        if i + 1 >= strands:
            raise ValueError("letter %d exceeds %d strands" % (letter, strands))
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    out = [0] * strands
    for top, bottom in enumerate(pos):
        out[bottom] = top
    return tuple(out)


def closure_is_knot(word, strands=None):
    """True when the trace closure has a single component. A cycle on
    k strands needs at least k - 1 transpositions, so a word shorter
    than strands - 1 is rejected before any per-strand list is built."""
    strands = strands or word_strands(word)
    if strands > len(word) + 1:
        return False
    perm = word_permutation(word, strands)
    seen, i = set(), 0
    while i not in seen:
        seen.add(i)
        i = perm[i]
    return len(seen) == strands


def _letter_tuples(word, strands):
    """Crossing tuples for the open braid, all strands upward; returns the
    tuples and the edge ids across the top. Edges 1..strands enter at the
    bottom, two fresh edges are created per letter (top-left, top-right)."""
    cur = list(range(1, strands + 1))
    next_edge = strands + 1
    tuples = []
    for letter in word:
        i = abs(letter) - 1
        left, right = cur[i], cur[i + 1]
        top_left, top_right = next_edge, next_edge + 1
        next_edge += 2
        if letter > 0:
            # under-strand right -> top-left, over-strand left -> top-right
            tuples.append((right, top_right, top_left, left))
        else:
            # under-strand left -> top-right, over-strand right -> top-left
            tuples.append((left, right, top_right, top_left))
        cur[i], cur[i + 1] = top_left, top_right
    return tuples, cur


def relabel_tuples(tuples):
    """Rename edge labels order-preservingly to 1..2n."""
    labels = sorted({e for t in tuples for e in t})
    remap = {e: i + 1 for i, e in enumerate(labels)}
    return [tuple(remap[e] for e in t) for t in tuples]


def trace_closure_tuples(word, strands=None):
    """PD tuples of the braid's trace closure, in the strict convention
    (slot 0 of every tuple is the incoming under-strand)."""
    strands = strands or word_strands(word)
    if not closure_is_knot(word, strands):
        raise ValueError("closure is not a knot (multiple components)")
    if not word:
        return []
    tuples, top = _letter_tuples(word, strands)
    merged = {top[j]: j + 1 for j in range(strands)}
    out = [tuple(merged.get(e, e) for e in t) for t in tuples]
    return relabel_tuples(out)


def plat_closure_tuples(word, strands=None):
    """PD tuples of the plat closure, in the strict convention: caps join
    positions (1,2), (3,4), ... at both ends. Plat strands alternate
    direction, so the closure is walked once from crossing 0 as written and
    every crossing whose under-strand the walk enters at slot 2 is turned by
    two slots; crossings off the walked component of a link stay as built.
    """
    strands = strands or word_strands(word)
    if strands % 2:
        raise ValueError("plat closure needs an even strand count")
    tuples, top = _letter_tuples(word, strands)

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


def full_twist_word(start, size):
    """One full twist on `size` adjacent strands starting at position
    `start`: (sigma_start ... sigma_{start+size-2})^size."""
    if size < 1 or start < 1:
        raise ValueError("need start >= 1 and size >= 1")
    if size == 1:
        return []
    return list(range(start, start + size - 1)) * size


def invert_word(word):
    return [-x for x in reversed(word)]


def collins_seifert_matrix(word, strands=None):
    """Seifert matrix of the braid's trace closure.

    Basis: for each generator index, the loops through consecutive pairs of
    its bands (occurrences in the word). Entry rules follow the two-bridge
    interaction table for braid-closure Seifert surfaces: a loop over bands
    of equal handedness contributes -1 (both positive) or +1 (both
    negative) on the diagonal; consecutive loops sharing a band contribute
    a single one-sided unit entry; loops on neighbouring generators
    contribute a unit entry when their band positions interleave.
    """
    strands = strands or word_strands(word)
    occurrences = [[] for _ in range(max(strands - 1, 0))]
    for pos, letter in enumerate(word):
        occurrences[abs(letter) - 1].append((pos, letter < 0))
    loops_by_gen = []
    for occ in occurrences:
        loops_by_gen.append(
            [(occ[i][0], occ[i + 1][0], occ[i][1], occ[i + 1][1]) for i in range(len(occ) - 1)]
        )
    index = {}
    total = 0
    for k, loops in enumerate(loops_by_gen):
        for m in range(len(loops)):
            index[k, m] = total
            total += 1
    v = [[0] * total for _ in range(total)]
    for k, loops in enumerate(loops_by_gen):
        for m, (p0, p1, neg0, neg1) in enumerate(loops):
            if neg0 == neg1:
                v[index[k, m]][index[k, m]] = 1 if neg0 else -1
        for m in range(len(loops) - 1):
            if not loops[m][3]:  # shared band is a positive crossing
                v[index[k, m + 1]][index[k, m]] = 1
            else:
                v[index[k, m]][index[k, m + 1]] = -1
        if k + 1 < len(loops_by_gen):
            for m, g in enumerate(loops):
                for l, h in enumerate(loops_by_gen[k + 1]):
                    if h[0] < g[0] < h[1] < g[1]:
                        v[index[k + 1, l]][index[k, m]] = 1
                    elif g[0] < h[0] < g[1] < h[1]:
                        v[index[k + 1, l]][index[k, m]] = -1
    return v


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
        if closure_is_knot(word, strands):
            return word
    raise RuntimeError("no knot closure found; implausible parameters")
