"""Twisted knot families: insert full twists into a base braid at marked
regions, compute exact signatures, and compare with the asymptotic
slope/signature predictions."""

import json

from ._record import Record
from .braid import (
    _require_letters,
    closure_is_knot,
    full_twist_word,
    invert_word,
    word_strands,
)
from .cusp import _require_ints
from .diagram import DiagramCode, gl_signature


class TwistSpec(Record):
    """A base braid whose trace closure is a knot, plus twist regions given
    as (position in word, first strand, strand count) within the base
    braid's own strands. Each region models a curve encircling that many
    coherently oriented strands, so its linking number with the knot
    equals the strand count."""

    __slots__ = _fields = ("base_braid", "regions")

    def __init__(self, base_braid, regions):
        base_braid = tuple(base_braid)
        regions = tuple(tuple(r) for r in regions)
        k = word_strands(base_braid)
        _require_ints([v for r in regions for v in r], "regions")
        for pos, start, count in regions:
            if not 0 <= pos <= len(base_braid):
                raise ValueError("region position %d outside the word" % pos)
            if count < 1 or start < 1 or start + count - 1 > k:
                raise ValueError(
                    "region strands [%d, %d] not within [1, %d]"
                    % (start, start + count - 1, k)
                )
        if not closure_is_knot(base_braid):
            raise ValueError("base braid closure is not a knot")
        object.__setattr__(self, "base_braid", base_braid)
        object.__setattr__(self, "regions", regions)

    @property
    def linking_numbers(self):
        return tuple(count for _, _, count in self.regions)


def _twist_word(start, count, q):
    if q == 0:
        return []
    word = full_twist_word(start, count) * abs(q)
    return word if q > 0 else invert_word(word)


def twisted_word(spec, q):
    """The braid word with q[i] full twists inserted at region i. Its
    length is counted before it is built, and a word longer than
    MAX_BRAID_LETTERS raises a ValueError."""
    if len(q) != len(spec.regions):
        raise ValueError(
            "need %d twist counts, got %d" % (len(spec.regions), len(q))
        )
    _require_ints(q, "twist counts")
    letters = len(spec.base_braid) + sum(
        abs(qi) * count * (count - 1) for (_, _, count), qi in zip(spec.regions, q)
    )
    _require_letters(letters, "twisted word")
    inserts = sorted(zip(spec.regions, q), key=lambda item: item[0][0])
    word = []
    prev = 0
    for (pos, start, count), qi in inserts:
        word.extend(spec.base_braid[prev:pos])
        word.extend(_twist_word(start, count, qi))
        prev = pos
    word.extend(spec.base_braid[prev:])
    return word


def twist_insert(spec, q):
    """Diagram of the twisted closure. Full twists are pure braids, so the
    closure is a knot whenever the spec's base braid closes to one."""
    return DiagramCode.from_braid_word(twisted_word(spec, q))


def predicted_slope(ell, q):
    """Asymptotic slope center -sum(ell[i]^2 * q[i])."""
    if len(ell) != len(q):
        raise ValueError("length mismatch: %d vs %d" % (len(ell), len(q)))
    _require_ints(ell, "linking numbers")
    _require_ints(q, "twist counts")
    return -sum(l * l * qi for l, qi in zip(ell, q))


def predicted_signature(ell, q):
    """Asymptotic signature center -sum((ell[i]^2 - [ell[i] odd]) * q[i]) / 2:
    each even linking number ell contributes -ell^2 q / 2, each odd one
    -(ell^2 - 1) q / 2. Both are integers, since ell^2 - [ell odd] is even."""
    if len(ell) != len(q):
        raise ValueError("length mismatch: %d vs %d" % (len(ell), len(q)))
    _require_ints(ell, "linking numbers")
    _require_ints(q, "twist counts")
    return -sum((l * l - l % 2) * qi for l, qi in zip(ell, q)) // 2


class FamilyRow(Record):
    """One twist vector q of a family: the exact signature, the predicted
    center and their difference."""

    __slots__ = _fields = ("q", "sigma", "predicted", "residual")

    def __init__(self, q, sigma, predicted, residual):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "residual", residual)


def family_report(spec, q_range):
    """One row per twist vector: exact signature, predicted center, and
    their difference. The residual column is what boundedness and
    stabilization checks consume."""
    ells = spec.linking_numbers
    rows = []
    for q in q_range:
        q = tuple(q)
        sigma = gl_signature(twist_insert(spec, q))
        predicted = predicted_signature(ells, q)
        rows.append(FamilyRow(q, sigma, predicted, sigma - predicted))
    return rows


def parse_braid_text(text):
    """Comma-separated signed generator indices, e.g. '1,1,1'."""
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError("bad braid word %r" % text) from None


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x):
    return isinstance(x, list) and all(_is_int(v) for v in x)


def load_spec(source):
    """Read a TwistSpec (and optional list of twist vectors) from a JSON
    file, given as a path or an open text stream (read, not closed):
    {"base_braid": [1,1,1] or "1,1,1", "regions": [[pos,start,count]],
    "q_vectors": [[q, ...]]}, the last two optional. Any other key, or a
    file of any other shape, raises a ValueError that names it."""
    if hasattr(source, "read"):
        raw = json.load(source)
    else:
        with open(source, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("spec must be a JSON object")
    unknown = sorted(set(raw) - {"base_braid", "regions", "q_vectors"})
    if unknown:
        raise ValueError("unknown spec key %s; the keys are base_braid, regions "
                         "and q_vectors" % ", ".join(map(repr, unknown)))
    word = raw.get("base_braid")
    if isinstance(word, str):
        word = parse_braid_text(word)
    elif not _is_int_list(word):
        raise ValueError("base_braid must be a list of integers or a string")
    regions = raw.get("regions", [])
    if not (isinstance(regions, list)
            and all(_is_int_list(r) and len(r) == 3 for r in regions)):
        raise ValueError("each regions entry must be three integers")
    q_vectors = raw.get("q_vectors", [])
    if not (isinstance(q_vectors, list) and all(_is_int_list(qv) for qv in q_vectors)):
        raise ValueError("q_vectors must be lists of integers")
    spec = TwistSpec(tuple(word), tuple(tuple(r) for r in regions))
    return spec, [tuple(qv) for qv in q_vectors]
