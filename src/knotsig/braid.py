"""Braid words, their closures as PD tuples, and braid Seifert matrices.

A braid word is a list of nonzero signed integers: letter +i crosses strand
position i over position i+1 (left over right, both oriented upward), -i is
the inverse. Positions are 1-based, words act bottom to top. A trace
closure is a knot only on the strands its word uses, one more than its
largest letter (`word_strands`), since any further strand closes into a
separate component; so the trace-closure functions take the word alone.

PD tuples are (a, b, c, d): counterclockwise from the incoming under-strand,
so the under-strand runs a -> c and the over-strand occupies b and d. With
all strands upward, a positive letter has the over-strand running d -> b and
a negative letter b -> d.
"""

# The longest braid word the package builds (a twisted word, a torus
# braid), counted before it is built. Every stage grows about linearly in
# the letters, the hub row of a twist region's Goeritz form included, and
# most of the time goes to building the code and to `checkerboard`: in
# process on a 2-core Xeon, `twist-verify` on the 3-strand region of
# {"base_braid": [1, -2], "regions": [[0, 1, 3]]} took 1.1 s at q = 10,000
# (60,002 letters) and 2.6 s at q = 19,999 (119,996 letters; 1.0 s building
# the code, 1.0 s in `checkerboard`, 0.7 s in inertia), peaking at 170 MB.
MAX_BRAID_LETTERS = 120_000


def word_strands(word):
    """Smallest strand count carrying the word (one more than the largest
    generator index); the empty word needs one strand."""
    if any(x == 0 for x in word):
        raise ValueError("braid letters must be nonzero integers")
    if not word:
        return 1
    return max(abs(x) for x in word) + 1


def word_permutation(word):
    """Permutation induced on the word's strand positions, as a tuple p
    with p[bottom_position] = top_position (0-based)."""
    pos = list(range(word_strands(word)))
    for letter in word:
        i = abs(letter) - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    out = [0] * len(pos)
    for top, bottom in enumerate(pos):
        out[bottom] = top
    return tuple(out)


def closure_is_knot(word):
    """True when the trace closure has a single component. A cycle on
    k strands needs at least k - 1 transpositions, so a word shorter
    than that is rejected before any per-strand list is built."""
    if word_strands(word) > len(word) + 1:
        return False
    perm = word_permutation(word)
    seen, i = set(), 0
    while i not in seen:
        seen.add(i)
        i = perm[i]
    return len(seen) == len(perm)


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


def trace_closure_tuples(word):
    """PD tuples of the braid's trace closure, in the strict convention
    (slot 0 of every tuple is the incoming under-strand)."""
    if not closure_is_knot(word):
        raise ValueError("closure is not a knot (multiple components)")
    if not word:
        return []
    tuples, top = _letter_tuples(word, word_strands(word))
    merged = {e: j + 1 for j, e in enumerate(top)}
    out = [tuple(merged.get(e, e) for e in t) for t in tuples]
    return relabel_tuples(out)


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


def collins_seifert_matrix(word):
    """Seifert matrix of the braid's trace closure, as a list of rows.

    Basis: for each generator index, the loops through consecutive pairs of
    its bands (occurrences in the word). Entry rules follow the two-bridge
    interaction table for braid-closure Seifert surfaces: a loop over bands
    of equal handedness contributes -1 (both positive) or +1 (both
    negative) on the diagonal; consecutive loops sharing a band contribute
    a single one-sided unit entry; loops on neighbouring generators
    contribute a unit entry when their band positions interleave.
    """
    occurrences = [[] for _ in range(word_strands(word) - 1)]
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
