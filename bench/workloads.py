"""Seeded inputs for the three benchmark workloads.

Nothing here imports knotsig: the inputs are built from the seed alone, so a
change to the program cannot change what the benchmark feeds it. The one
exception is the bundled diagram corpus, which is read as text from the
checkout. The sizes that set a job's cost are either fixed (plat circle
counts, pretzel parameter sizes) or drawn by stratified sampling, one draw
per equal-width stratum in random order (twist lengths, geodesic lengths,
kappa magnitudes), so the work of a job list barely moves between seeds
while the individual inputs do.

A job is a JSON-ready dict with a "kind" naming the CLI subcommand whose
library work it repeats, the inputs that subcommand would read, and, where
the generator knows it, the answer a check can compare against.
"""

import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "src" / "knotsig" / "data" / "corpus.tsv"

# soft geometry bounds of knotsig.cusp, restated so that the inputs do not
# depend on the program; a row outside one of them is ingested with
# exactly one warning
MERIDIAN_RANGE = (1.0, 6.0)
MIN_VOLUME = 2.0298
MAX_INJ = 1.82

# Seifert circles of every random plat in the nonbraided workload
PLAT_CIRCLES = 15

# short geodesics are the ones below half this cutoff, Re < 0.35
EPSILON = 0.7


def stratified(rng, count, lo, hi):
    """`count` draws from [lo, hi), one per equal-width stratum, shuffled."""
    width = (hi - lo) / count
    draws = [lo + (i + rng.random()) * width for i in range(count)]
    rng.shuffle(draws)
    return draws


def pd_text(tuples):
    return " ".join("X(%d,%d,%d,%d)" % t for t in tuples)


def closure_pd(word, strands, caps):
    """PD tuples of a braid closed by the same caps at bottom and top, or
    None when the closure has more than one component.

    Crossing slots are bottom-left, bottom-right, top-right, top-left, which
    is counterclockwise. A strand passes a crossing from slot s to slot
    s + 2. Letter +i puts the strand from bottom-right to top-left under,
    letter -i the one from bottom-left to top-right. Edges are numbered
    1..2n along the knot, and each tuple starts at its incoming under-strand.
    """
    parent = list(range(strands + 2 * len(word)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cur = list(range(strands))
    slots = []
    under = []
    fresh = strands
    for letter in word:
        i = abs(letter) - 1
        top_left, top_right = fresh, fresh + 1
        fresh += 2
        slots.append([cur[i], cur[i + 1], top_right, top_left])
        under.append(1 if letter > 0 else 0)
        cur[i], cur[i + 1] = top_left, top_right
    for a, b in caps:
        parent[find(a)] = find(b)
        parent[find(cur[a])] = find(cur[b])
    ends = {}
    for c, row in enumerate(slots):
        for s, e in enumerate(row):
            ends.setdefault(find(e), []).append((c, s))
    if any(len(v) != 2 for v in ends.values()):
        return None  # a closed-off circle with no crossings on it
    label = {}
    incoming = {}
    c, s = 0, 0
    for step in range(1, 2 * len(word) + 1):
        incoming.setdefault(c, []).append(s)
        out = (s + 2) % 4
        edge = find(slots[c][out])
        label[edge] = step
        pair = ends[edge]
        c, s = pair[1] if pair[0] == (c, out) else pair[0]
        if (c, s) == (0, 0):
            break
    if len(label) != 2 * len(word):
        return None
    tuples = []
    for c, row in enumerate(slots):
        u = next(s for s in incoming[c] if s % 2 == under[c])
        tuples.append(tuple(label[find(row[(u + k) % 4])] for k in range(4)))
    return tuples


def plat_pd(word, strands):
    return closure_pd(word, strands, [(k, k + 1) for k in range(0, strands, 2)])


def pretzel_pd(params):
    """Pretzel diagram: twist boxes side by side, joined at both ends by
    caps between neighbouring boxes and one outer cap around all of them.
    Handedness may be the mirror of the corpus generator's."""
    n = len(params)
    word = []
    for i, k in enumerate(params):
        word += [(2 * i + 1) * (1 if k > 0 else -1)] * abs(k)
    caps = [(k, k + 1) for k in range(1, 2 * n - 1, 2)] + [(0, 2 * n - 1)]
    return closure_pd(word, 2 * n, caps)


def _corpus_jobs():
    jobs = []
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, code = line.partition("\t")
            jobs.append({"kind": "signature", "name": name, "pd": code, "crossings": code.count("X(")})
    return jobs


def seifert_circles(tuples):
    """Circles of the oriented smoothing of a diagram whose edges are
    numbered along the knot; a crossing is positive when its over-strand
    runs from slot 3 to slot 1."""
    last = 2 * len(tuples)
    succ = {}
    for a, b, c, d in tuples:
        if b == d % last + 1:
            succ[a], succ[d] = b, c
        else:
            succ[a], succ[b] = d, c
    seen = set()
    circles = 0
    for e in succ:
        if e not in seen:
            circles += 1
            while e not in seen:
                seen.add(e)
                e = succ[e]
    return circles


def _random_plats(rng, strands, circle_counts):
    """Plat closures of random words of 10-34 letters on `strands` strands,
    one for each wanted Seifert circle count, in the order given: each
    random knot diagram fills the first open slot with its circle count."""
    slots = list(circle_counts)
    found = [None] * len(slots)
    while None in found:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(10, 34))]
        touched = {abs(x) for x in word} | {abs(x) - 1 for x in word}
        if len(touched) == strands and (tuples := plat_pd(word, strands)):
            circles = seifert_circles(tuples)
            for k, want in enumerate(slots):
                if want == circles and found[k] is None:
                    found[k] = tuples
                    break
    return found


def nonbraided(rng, scale):
    """`signature --method both` on diagrams that are not braid closures.

    The Vogel moves `braid_word` makes grow with the Seifert circle count
    (correlation 0.98 on random plats) and its time with their square, so
    every plat has the same circle count and every pretzel the same
    parameter sizes; the seed picks words, signs and order. That keeps the
    workload's cost, and the latency of its slow jobs, steady across seeds."""
    jobs = _corpus_jobs()
    if scale < 1:
        jobs = jobs[:: max(1, round(1 / scale))]
    per_strands = max(1, round(16 * scale))
    for strands in (4, 6, 8):
        for tuples in _random_plats(rng, strands, [PLAT_CIRCLES] * per_strands):
            jobs.append({"kind": "signature", "name": "plat%d" % strands, "pd": pd_text(tuples), "crossings": len(tuples)})
    for sizes, count in (((1, 3, 5), 8), ((1, 1, 3, 3, 3), 4)):
        for _ in range(max(1, round(count * scale))):
            params = [k * rng.choice((1, -1)) for k in rng.sample(sizes, len(sizes))]
            tuples = pretzel_pd(params)
            jobs.append({"kind": "signature", "name": "pretzel%s" % params, "pd": pd_text(tuples), "crossings": len(tuples)})
    return jobs, {}


def _twist_base(rng):
    """A word of 2, 4 or 6 letters on 3 strands whose trace closure is a
    knot, that is, whose strand permutation is a 3-cycle."""
    while True:
        word = [rng.choice((1, -1, 2, -2)) for _ in range(rng.choice((2, 4, 6)))]
        pos = [0, 1, 2]
        for x in word:
            i = abs(x) - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        if all(pos[k] != k for k in range(3)):
            return word


def braided(rng, scale):
    """`torus-check` pairs plus `twist-verify` rows: diagrams that are
    already braid closures."""
    max_pq = max(12, round(150 * scale))
    jobs = []
    p = 2
    while p * (p + 1) <= max_pq:
        for q in range(p + 1, max_pq // p + 1):
            if math.gcd(p, q) == 1:
                jobs.append({"kind": "torus_check", "p": p, "q": q, "crossings": q * (p - 1)})
        p += 1
    for x in stratified(rng, max(1, round(16 * scale)), 120, 231):
        base = _twist_base(rng)
        # each full twist on 3 strands is 6 letters
        q = max(1, round((x - len(base)) / 6))
        pos = rng.randint(0, len(base))
        jobs.append({"kind": "twist_verify", "base": base, "regions": [[pos, 1, 3]], "q": [q], "crossings": len(base) + 6 * q})
    return jobs, {}


def _census_row(rng, name, small_pds, short_re):
    """One census row and whether it lies outside a soft bound. Every
    meridian has positive imaginary part, so ingest never conjugates."""
    crossings = rng.randint(3, 16)
    sigma = 2 * rng.randint(-crossings // 2, crossings // 2)
    volume = rng.uniform(MIN_VOLUME + 0.1, 30.0)
    inj = rng.uniform(0.05, MAX_INJ - 0.1)
    modulus = rng.uniform(MERIDIAN_RANGE[0] + 0.1, MERIDIAN_RANGE[1] - 0.1)
    outside = rng.random() < 0.05
    if outside:
        which = rng.randrange(3)
        if which == 0:
            volume = rng.uniform(0.5, MIN_VOLUME - 0.03)
        elif which == 1:
            inj = rng.uniform(MAX_INJ + 0.05, 3.0)
        else:
            modulus = rng.uniform(0.3, MERIDIAN_RANGE[0] - 0.1)
    angle = rng.uniform(0.15, math.pi - 0.15)
    meridian = complex(modulus * math.cos(angle), modulus * math.sin(angle))
    longitude = rng.uniform(2.0, 60.0)
    geos = [(rng.uniform(0.4, 2.5), rng.uniform(0, math.pi), rng.choice(("odd", "even")))
            for _ in range(rng.randrange(3))]
    if short_re:
        geos.append((short_re, rng.uniform(-math.pi, math.pi), "odd"))
    geodesics = ";".join("%r%s%ri:%s" % (re, "+" if im >= 0 else "-", abs(im), parity)
                         for re, im, parity in geos)
    pd = rng.choice(small_pds) if rng.random() < 0.3 else ""
    record = [name, crossings, sigma, repr(volume), repr(inj), repr(meridian.real),
              repr(meridian.imag), repr(longitude), geodesics, pd]
    return record, outside, longitude * meridian.real / abs(meridian) ** 2


def cusp(rng, scale):
    """`census-stats` files, `correct-slope` on the knots with short
    geodesics, and `kappa` on large coprime pairs: the float side, with no
    signature computed. Each knot that carries a short geodesic carries one,
    with Re log-uniform in [0.01, 0.35]; `twisting_parameter` costs 1/Re^2,
    so they are drawn stratified, which also pins the median job, a
    `correct-slope` job well above every `kappa` job."""
    small_pds = [j["pd"] for j in _corpus_jobs() if j["crossings"] <= 8]
    files = max(2, round(20 * scale))
    rows_per_file = max(20, round(250 * scale))
    knots = max(2, round(120 * scale))
    res = [math.exp(x) for x in stratified(rng, knots, math.log(0.01), math.log(0.35))]
    short_at = dict(zip(rng.sample(range(files * rows_per_file), knots), res))
    jobs = []
    files_out = {}
    slope_jobs = []
    for f in range(files):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("name", "crossings", "signature", "volume", "inj_radius", "meridian_re",
                         "meridian_im", "longitude", "geodesics", "pd"))
        warnings = crossings = 0
        for r in range(rows_per_file):
            short_re = short_at.get(f * rows_per_file + r)
            record, outside, slope = _census_row(rng, "K%d_%d" % (f, r), small_pds, short_re)
            writer.writerow(record)
            warnings += outside
            crossings += record[9].count("X(")
            if short_re:
                slope_jobs.append({"kind": "correct_slope", "geodesics": record[8], "slope": slope,
                                   "epsilon": EPSILON})
        path = "census_%02d.csv" % f
        files_out[path] = buf.getvalue()
        jobs.append({"kind": "census_stats", "csv": path, "out": "out_%02d" % f,
                     "rows": rows_per_file, "warnings": warnings, "crossings": crossings})
    jobs += slope_jobs
    for x in stratified(rng, max(2, round(40 * scale)), 1, 41):
        digits = int(x)
        while True:
            p, q = (rng.randrange(1, 10 ** digits) for _ in range(2))
            if math.gcd(p, q) == 1:
                break
        jobs.append({"kind": "kappa", "p": rng.choice((1, -1)) * p, "q": q})
    return jobs, files_out


WORKLOADS = {"nonbraided": nonbraided, "braided": braided, "cusp": cusp}


def generate(name, seed, scale=1.0):
    """(jobs, files): the job list and the text files it reads, by relative
    path, for one workload and seed."""
    return WORKLOADS[name](random.Random("%s:%d" % (name, seed)), scale)


def fingerprint(jobs, files):
    """Input counts plus a digest of everything the program will read."""
    blob = json.dumps([jobs, sorted(files.items())], sort_keys=True).encode()
    return {
        "jobs": len(jobs),
        "crossings": sum(j.get("crossings", 0) for j in jobs),
        "census_rows": sum(j.get("rows", 0) for j in jobs),
        "geodesics": sum(j["kind"] == "correct_slope" for j in jobs),
        "digest": hashlib.sha256(blob).hexdigest()[:16],
    }
