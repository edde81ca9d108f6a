"""Census tables: ingest rows of cusp data from CSV, derive the slope and
signature statistics, and emit deterministic CSV/JSON artifacts.

The input schema is flat and hand-editable:

    name,crossings,signature,volume,inj_radius,meridian_re,meridian_im,
    longitude,geodesics,pd

where geodesics is a semicolon-separated list of "re+imi:parity[:radius]"
entries and pd is an optional quoted diagram code, kept as its canonical
text. Emitted files append derived columns to the same schema, so a
derived CSV ingests again and re-emits byte for byte. derived.csv holds
one LF-ended line per row, every number as `str()` writes it, and quotes
a text field, its own quotes doubled, exactly when it holds a comma, a
quote, CR or LF. The bytes are the same on every supported Python.

Soft geometry warnings raised while rows are parsed are captured once per
file and re-issued after it as `GeometryWarning`s, in row order, each
with its "<file> line N: " context, also when a later row raises an
ingest error.
"""

import contextlib
import csv
import json
import math
import operator
import warnings
from pathlib import Path

from ._record import Record
from .cusp import (
    CuspShape,
    GeometryWarning,
    KnotGeom,
    _inj_cubed,
    _not_utf8,
    _require_finite_number,
    natural_slope,
    parse_complex,
)
from .diagram import parse_pd, pd_text
from .geodesic import GeodesicRecord

_COLUMNS = (
    "name",
    "crossings",
    "signature",
    "volume",
    "inj_radius",
    "meridian_re",
    "meridian_im",
    "longitude",
    "geodesics",
    "pd",
)
_DERIVED_COLUMNS = (
    "slope",
    "two_sigma_minus_slope",
    "c1",
    "sigma_hat",
    "residual_over_sqrt_vol",
)
_HIST_BIN = 0.02


class CensusFormatError(ValueError):
    """Unreadable census file or a row that fails validation."""


class CensusRow(Record):
    """One validated census row. `pd` is its PD code as `pd_text` writes
    it, labels 1..2n, or None. `geom`, its `KnotGeom`, is built once with
    the row and takes no part in `==`, `hash` or `repr`."""

    _fields = (
        "name",
        "crossings",
        "sigma",
        "volume",
        "inj",
        "meridian",
        "longitude",
        "geodesics",
        "pd",
    )
    __slots__ = _fields + ("geom",)

    def __init__(
        self, name, crossings, sigma, volume, inj, meridian, longitude, geodesics=(), pd=None
    ):
        geodesics = tuple(geodesics)
        if crossings < 3:
            raise ValueError("crossing number must be at least 3")
        # built once: hard errors raise, soft checks warn once per row
        geom = KnotGeom(CuspShape(longitude, meridian), volume, inj, sigma)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "inj", inj)
        object.__setattr__(self, "meridian", meridian)
        object.__setattr__(self, "longitude", longitude)
        object.__setattr__(self, "geodesics", geodesics)
        object.__setattr__(self, "pd", pd)
        object.__setattr__(self, "geom", geom)


def parse_geodesics(text):
    records = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.split(":")
        if len(fields) not in (2, 3):
            raise ValueError("geodesic %r is not complex:parity[:radius]" % chunk)
        try:
            radius = float(fields[2]) if len(fields) == 3 else None
        except ValueError:
            raise ValueError("tube radius of geodesic %r is not a number" % chunk) from None
        records.append(GeodesicRecord(parse_complex(fields[0]), fields[1].strip(), radius))
    return tuple(records)


def format_geodesics(geos):
    """The text `parse_geodesics` reads: `re+imi:parity[:radius]` per
    geodesic, joined by `;`, each from one format. The sign is read off
    the imaginary part and its magnitude follows, so -0.0 is written +0.0."""
    parts = []
    for g in geos:
        z, r = g.complex_length, g.tube_radius
        parts.append(
            "%r%s%ri:%s%s"
            % (z.real, "+" if z.imag >= 0 else "-", abs(z.imag), g.linking_parity,
               "" if r is None else ":" + repr(r))
        )
    return ";".join(parts)


def _parse_row(name, crossings, sigma, volume, inj, re, im, longitude, geodesics, pd):
    """One row from its fields in `_COLUMNS` order; a field that a short
    row lacks is None."""
    name = (name or "").strip()
    if not name:
        raise ValueError("empty name")
    meridian = complex(float(re), float(im))
    if meridian.imag < 0:
        warnings.warn(
            "meridian of %s has negative imaginary part; conjugating" % name,
            GeometryWarning,
            stacklevel=2,
        )
        meridian = meridian.conjugate()
    pd = (pd or "").strip()
    # positional, in field order: the first bad field raises first
    return CensusRow(
        name,
        int(crossings),
        int(sigma),
        float(volume),
        float(inj),
        meridian,
        float(longitude),
        parse_geodesics(geodesics or ""),
        pd_text(parse_pd(pd)) if pd else None,
    )


def ingest(source):
    """Read a census CSV, given as a path (decoded as UTF-8 whatever the
    locale, a leading byte-order mark dropped) or an open text stream
    opened with newline="", into validated rows, a row at a time as it
    streams. A stream is read but not closed, and messages name it by its
    `name` attribute, "<stdin>" for standard input.

    Rows are read as `csv.DictReader` reads them: blank lines are skipped,
    a field missing from a short row is None, extra fields are ignored, a
    repeated column name reads its last column. Malformed rows, and lines
    that `csv` cannot read (such as a field past its size limit), raise
    CensusFormatError with the offending line number, and text that is
    not UTF-8 with the file's name only. Soft geometry warnings are
    captured once for the whole file and re-issued after it, in row
    order, with "<file> line N: " attached, also when a later row raises.
    """
    if hasattr(source, "read"):
        fh = contextlib.nullcontext(source)
        where = short = getattr(source, "name", "<stream>")
    else:
        path = Path(source)
        where, short = path, path.name
        try:
            fh = path.open(newline="", encoding="utf-8-sig")
        except OSError as exc:
            raise CensusFormatError("cannot read %s: %s" % (path, exc)) from exc
    with fh as stream:
        reader = csv.reader(stream)
        rows = []
        pending = []  # (line, message) of every warning of a parsed row
        try:
            header = next(reader, None)
            if header is None:
                raise CensusFormatError("%s: empty file, expected a header row" % where)
            missing = [c for c in _COLUMNS if c not in header]
            if missing:
                raise CensusFormatError(
                    "%s: header is missing columns %s" % (where, ", ".join(missing))
                )
            column = {c: i for i, c in enumerate(header)}
            pick = operator.itemgetter(*[column[c] for c in _COLUMNS])
            width = len(header)
            # reader.line_num is the last line of the current row, as
            # DictReader's is: it sets line_num again after skipping blank lines
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for fields in reader:
                    if not fields:
                        continue
                    if len(fields) < width:
                        fields += [None] * (width - len(fields))
                    try:
                        rows.append(_parse_row(*pick(fields)))
                    except (ValueError, TypeError) as exc:
                        raise CensusFormatError(
                            "%s line %d: %s" % (where, reader.line_num, exc)
                        ) from exc
                    if caught:
                        pending.extend((reader.line_num, w.message) for w in caught)
                        caught.clear()
        except csv.Error as exc:
            # a field past csv's size limit, say: that limit is process-wide, left alone
            raise CensusFormatError(
                "%s line %d: %s" % (where, reader.line_num, exc)
            ) from exc
        except UnicodeDecodeError as exc:
            # decoded in chunks ahead of the reader, so no line number is known
            raise CensusFormatError(_not_utf8(where, exc)) from exc
        finally:
            for line, message in pending:
                warnings.warn(
                    "%s line %d: %s" % (short, line, message),
                    GeometryWarning,
                    stacklevel=2,
                )
    return rows


class DerivedRow(Record):
    """A census row with its derived columns: gap = 2*sigma - slope,
    signed, and gap_normalized = gap / sqrt(volume)."""

    __slots__ = _fields = ("row", "slope", "gap", "c1", "sigma_hat", "gap_normalized")

    def __init__(self, row, slope, gap, c1, sigma_hat, gap_normalized):
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "sigma_hat", sigma_hat)
        object.__setattr__(self, "gap_normalized", gap_normalized)


class StatsReport(Record):
    """The derived rows and their aggregates. c1_by_crossing holds
    (crossings, max c1, mean c1) per crossing number and c1_hist
    (bin lower edge, count) pairs; correlation and envelope_fraction are
    None where they are undefined."""

    __slots__ = _fields = (
        "rows",
        "envelope_b",
        "envelope_c",
        "c1_by_crossing",
        "correlation",
        "c1_hist",
        "envelope_fraction",
    )

    def __init__(
        self, rows, envelope_b, envelope_c, c1_by_crossing, correlation, c1_hist, envelope_fraction
    ):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "envelope_b", envelope_b)
        object.__setattr__(self, "envelope_c", envelope_c)
        object.__setattr__(self, "c1_by_crossing", c1_by_crossing)
        object.__setattr__(self, "correlation", correlation)
        object.__setattr__(self, "c1_hist", c1_hist)
        object.__setattr__(self, "envelope_fraction", envelope_fraction)


def aggregate(derived, envelope_b=2.0, envelope_c=2.0):
    """Fold derived rows into a StatsReport; derive() routes through here,
    so re-aggregating a report's rows reproduces the report. A non-finite
    envelope constant is a ValueError, and statistics that leave the float
    range are a CensusFormatError."""
    # imported here, its only reader, so that start-up does not load it
    import statistics

    _require_finite_number(envelope_b, "envelope constant b")
    _require_finite_number(envelope_c, "envelope constant c")
    by_crossing = {}
    for d in derived:
        by_crossing.setdefault(d.row.crossings, []).append(d.c1)
    try:
        c1_by_crossing = tuple(
            (c, max(vals), statistics.fmean(vals)) for c, vals in sorted(by_crossing.items())
        )
        sigmas = [float(d.row.sigma) for d in derived]
        # equal signatures have no correlation; statistics.correlation
        # says so only while the slopes' spread stays within the floats
        correlation = None
        if len(set(sigmas)) > 1:
            try:
                correlation = statistics.correlation(sigmas, [d.slope for d in derived])
            except statistics.StatisticsError:
                pass
            else:
                _require_finite_number(correlation, "correlation")
        bins = {}
        for d in derived:
            lo = round(int(d.c1 / _HIST_BIN) * _HIST_BIN, 2)
            bins[lo] = bins.get(lo, 0) + 1
    except (OverflowError, ValueError) as exc:
        # columns near the float limit: fsum overflows or meets inf - inf,
        # or a c1 past 2% of the limit overflows its histogram bin
        raise CensusFormatError("census statistics leave the float range: %s" % exc) from exc
    c1_hist = tuple(sorted(bins.items()))
    if derived:
        inside = sum(
            1
            for d in derived
            if abs(d.gap) <= envelope_b * math.sqrt(d.row.volume) + envelope_c
        )
        envelope_fraction = inside / len(derived)
    else:
        envelope_fraction = None
    return StatsReport(
        rows=tuple(derived),
        envelope_b=envelope_b,
        envelope_c=envelope_c,
        c1_by_crossing=c1_by_crossing,
        correlation=correlation,
        c1_hist=c1_hist,
        envelope_fraction=envelope_fraction,
    )


def _derive_row(row):
    """The derived columns of one row: the slope and sqrt(volume) are worked
    out once, with the float expressions of `natural_slope`,
    `c1_statistic` and `normalized_signature`, so each column equals
    theirs bit for bit and the first error raised is theirs. A column
    past the float range, the last two included, is refused."""
    g = row.geom
    try:
        slope = natural_slope(g.cusp)
        gap = 2 * row.sigma - slope
        c1 = _require_finite_number(abs(gap) * _inj_cubed(g) / row.volume, "c1 statistic")
        root = math.sqrt(row.volume)
        return DerivedRow(
            row,
            slope,
            gap,
            c1,
            _require_finite_number(row.sigma / root, "normalized signature"),
            _require_finite_number(gap / root, "residual over sqrt(volume)"),
        )
    except ValueError as exc:
        raise CensusFormatError("row %s: %s" % (row.name, exc)) from exc


def derive(rows, envelope_b=2.0, envelope_c=2.0):
    """Compute per-row derived columns and the aggregate statistics,
    ordered by name. An empty input gives an empty report; a row whose
    derived values leave the float range raises CensusFormatError naming
    the row."""
    derived = tuple(_derive_row(r) for r in sorted(rows, key=lambda r: r.name))
    return aggregate(derived, envelope_b, envelope_c)


def sign_agreement(rows):
    """Fraction of rows with |sigma_hat| > 1 where the signature and the
    real part of the meridian share a sign; None when nothing qualifies."""

    def signum(x):
        return (x > 0) - (x < 0)

    selected = [r for r in rows if abs(r.sigma) / math.sqrt(r.volume) > 1.0]
    if not selected:
        return None
    agree = sum(1 for r in selected if signum(r.sigma) == signum(r.meridian.real))
    return agree / len(selected)


# one derived row, `_COLUMNS + _DERIVED_COLUMNS`: every number as str()
# writes it, which is what csv.writer writes for an int or a float
_ROW = ",".join(["%s"] * (len(_COLUMNS) + len(_DERIVED_COLUMNS))) + "\n"


def _csv_text(text):
    """A text field as derived.csv holds it: wrapped in quotes, its own
    quotes doubled, when it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"%s"' % text.replace('"', '""')
    return text


def emit(report, out_dir):
    """Write derived.csv and plots.json under out_dir; returns both paths.
    Output is byte-identical across runs on equal reports.

    derived.csv is built in one pass, one line per row from one format,
    and written with one call: numbers as str() writes them, LF line ends.
    A text field (name, geodesics, PD code) is wrapped in quotes, its
    own quotes doubled, exactly when it holds a comma, a quote, CR or LF.
    So the bytes are the same on every supported Python, and the file
    reads back in: csv.writer on 3.10-3.12 wrote a field whose only
    special character is a CR bare, which ends the row when read. Every
    line is encoded before any file is created or truncated: text that
    UTF-8 cannot encode, such as a lone surrogate, raises
    CensusFormatError naming its row and leaves both files as they were."""
    lines = [(",".join(_COLUMNS + _DERIVED_COLUMNS) + "\n").encode("ascii")]
    for d in report.rows:
        r = d.row
        line = (
            _ROW
            % (
                _csv_text(r.name),
                r.crossings,
                r.sigma,
                r.volume,
                r.inj,
                r.meridian.real,
                r.meridian.imag,
                r.longitude,
                _csv_text(format_geodesics(r.geodesics)),
                _csv_text(r.pd or ""),
                d.slope,
                d.gap,
                d.c1,
                d.sigma_hat,
                d.gap_normalized,
            )
        )
        try:
            lines.append(line.encode("utf-8"))
        except UnicodeEncodeError as exc:
            raise CensusFormatError(
                "row %s: not UTF-8 text (character %r)" % (r.name, exc.object[exc.start])
            ) from exc
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "derived.csv"
    json_path = out_dir / "plots.json"
    csv_path.write_bytes(b"".join(lines))
    payload = {
        "schema_version": 1,
        "c1_hist": [[lo, count] for lo, count in report.c1_hist],
        "slope_vs_sig": [[d.slope, d.row.sigma] for d in report.rows],
        "c1_by_crossing": [[c, mx, mean] for c, mx, mean in report.c1_by_crossing],
    }
    json_path.write_text(_plots_json(payload), encoding="utf-8")
    return csv_path, json_path


def _plots_json(payload):
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for byte,
    for a non-empty dict whose values are numbers or lists of lists of
    numbers. With an indent, json writes through its pure-Python encoder;
    here its C encoder writes each value on one line, and the line breaks
    go in by replacing separators, which no number contains."""
    lines = []
    for key in sorted(payload):
        text = json.dumps(payload[key])
        if text.startswith("[["):
            text = "[\n    [\n      " + text[2:-2] + "\n    ]\n  ]"
            text = text.replace(", ", ",\n      ")
            text = text.replace("],\n      [", "\n    ],\n    [\n      ")
            # an empty row is the one place a break follows a break
            text = text.replace("[\n      \n    ]", "[]")
        lines.append("  %s: %s" % (json.dumps(key), text))
    return "{\n%s\n}\n" % ",\n".join(lines)
