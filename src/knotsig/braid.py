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

from bisect import bisect
from itertools import accumulate

from .cusp import _require_ints

# The longest braid word the package builds (a twisted word, a torus
# braid), counted before it is built. Every stage grows about linearly in
# the letters, the hub row of a twist region's Goeritz form included: in
# process on a shared 2-core Xeon (Python 3.11.7), the 3-strand region of
# {"base_braid": [1, -2], "regions": [[0, 1, 3]]} took 0.6-0.9 s at
# q = 10,000 (60,002 letters) and 1.4-2.1 s at q = 19,999 (119,996
# letters: 0.11-0.16 s for the closure's tuples, 0.23-0.34 s for the
# code's geometry, 0.44-0.66 s in `checkerboard`, 0.61-0.94 s in inertia),
# and `twist-verify` on it took 1.4-2.1 s as a fresh process, peaking at
# 140 MB.
MAX_BRAID_LETTERS = 120_000


def word_strands(word):
    """Smallest strand count carrying the word (one more than the largest
    generator index); the empty word needs one strand."""
    if not all(isinstance(x, int) and x for x in word):
        raise ValueError("braid letters must be nonzero integers")
    if not word:
        return 1
    return max(map(abs, word)) + 1


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


def trace_closure_tuples(word):
    """PD tuples of the braid's trace closure, in the strict convention
    (slot 0 of every tuple is the incoming under-strand), with every arc
    labelled once: the bottom edges are 1..strands, a position's top edge
    is its bottom edge, and every other edge is numbered in the order the
    letters create it, two per letter (top-left, then top-right)."""
    if not closure_is_knot(word):
        raise ValueError("closure is not a knot (multiple components)")
    strands = word_strands(word)
    # last[j]: the last letter at position j, whose top edge there closes up
    last = [0] * strands
    for k, letter in enumerate(word):
        i = abs(letter) - 1
        last[i] = last[i + 1] = k
    cur = list(range(1, strands + 1))
    fresh = strands + 1
    tuples = []
    for k, letter in enumerate(word):
        i = abs(letter) - 1
        left, right = cur[i], cur[i + 1]
        if last[i] == k:
            top_left = i + 1
        else:
            top_left = fresh
            fresh += 1
        if last[i + 1] == k:
            top_right = i + 2
        else:
            top_right = fresh
            fresh += 1
        if letter > 0:
            # under-strand right -> top-left, over-strand left -> top-right
            tuples.append((right, top_right, top_left, left))
        else:
            # under-strand left -> top-right, over-strand right -> top-left
            tuples.append((left, right, top_right, top_left))
        cur[i], cur[i + 1] = top_left, top_right
    return tuples


def full_twist_word(start, size):
    """One full twist on `size` adjacent strands starting at position
    `start`: (sigma_start ... sigma_{start+size-2})^size."""
    _require_ints((start, size), "start and size")
    if size < 1 or start < 1:
        raise ValueError("need start >= 1 and size >= 1")
    if size * (size - 1) > MAX_BRAID_LETTERS:
        raise ValueError(
            "a full twist on %d strands has more than %d letters"
            % (size, MAX_BRAID_LETTERS)
        )
    if size == 1:
        return []
    return list(range(start, start + size - 1)) * size


def invert_word(word):
    return [-x for x in reversed(word)]


def collins_seifert_matrix(word):
    """Seifert matrix V of the braid's trace closure, as rows of nonzeros
    v[i] = {j: v_ij}.

    Basis: for each generator index k, the loops through consecutive pairs of
    its bands (occurrences in the word), loop m at row start[k] + m. Entry
    rules follow the two-bridge interaction table for braid-closure Seifert
    surfaces: a loop over bands of equal handedness contributes -1 (both
    positive) or +1 (both negative) on the diagonal; consecutive loops
    sharing a band contribute a single one-sided unit entry; loops on
    neighbouring generators contribute a unit entry when their band
    positions interleave.
    """
    bands = [[] for _ in range(word_strands(word) - 1)]
    for pos, letter in enumerate(word):
        bands[abs(letter) - 1].append(pos)
    start = list(accumulate((max(len(occ) - 1, 0) for occ in bands), initial=0))
    v = [{} for _ in range(start[-1])]
    for k, (occ, nxt) in enumerate(zip(bands, bands[1:] + [[]])):
        for m, (g0, g1) in enumerate(zip(occ, occ[1:])):
            r = start[k] + m
            if (word[g0] < 0) == (word[g1] < 0):
                v[r][r] = 1 if word[g0] < 0 else -1
            if m + 2 < len(occ):  # loops m and m + 1 share band g1
                if word[g1] > 0:
                    v[r + 1][r] = 1
                else:
                    v[r][r + 1] = -1
            # only the loop of k + 1 around g0, when it ends inside (g0, g1),
            # and the one around g1, when it starts inside, interleave
            i, j = bisect(nxt, g0), bisect(nxt, g1)
            if 0 < i < j:
                v[start[k + 1] + i - 1][r] = 1
            if i < j < len(nxt):
                v[start[k + 1] + j - 1][r] = -1
    return v
