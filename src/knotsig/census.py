"""Census tables: ingest rows of cusp data from CSV, derive the slope and
signature statistics, and emit deterministic CSV/JSON artifacts.

The input schema is flat and hand-editable:

    name,crossings,signature,volume,inj_radius,meridian_re,meridian_im,
    longitude,geodesics,pd

where geodesics is a semicolon-separated list of "re+imi:parity[:radius]"
entries and pd is an optional quoted diagram code. Emitted files append
derived columns to the same schema, so a derived CSV ingests again and
re-emits byte for byte.
"""

import contextlib
import csv
import json
import math
import statistics
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .cusp import (
    CuspShape,
    GeometryWarning,
    KnotGeom,
    _require_finite_number,
    c1_statistic,
    natural_slope,
    normalized_signature,
    parse_complex,
)
from .diagram import DiagramCode, pd_text
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


@dataclass(frozen=True)
class CensusRow:
    name: str
    crossings: int
    sigma: int
    volume: float
    inj: float
    meridian: complex
    longitude: float
    geodesics: tuple = ()
    pd: DiagramCode | None = None
    geom: KnotGeom = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "geodesics", tuple(self.geodesics))
        if self.crossings < 3:
            raise ValueError("crossing number must be at least 3")
        # built once: hard errors raise, soft checks warn once per row
        geom = KnotGeom(
            CuspShape(self.longitude, self.meridian), self.volume, self.inj, self.sigma
        )
        object.__setattr__(self, "geom", geom)


def _fmt_complex(z):
    sign = "+" if z.imag >= 0 else "-"
    return "%r%s%ri" % (z.real, sign, abs(z.imag))


def parse_geodesics(text):
    records = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.split(":")
        if len(fields) not in (2, 3):
            raise ValueError("geodesic %r is not complex:parity[:radius]" % chunk)
        radius = float(fields[2]) if len(fields) == 3 else None
        records.append(GeodesicRecord(parse_complex(fields[0]), fields[1].strip(), radius))
    return tuple(records)


def format_geodesics(geos):
    parts = []
    for g in geos:
        item = "%s:%s" % (_fmt_complex(g.complex_length), g.linking_parity)
        if g.tube_radius is not None:
            item += ":%r" % g.tube_radius
        parts.append(item)
    return ";".join(parts)


def _parse_row(rec):
    name = (rec["name"] or "").strip()
    if not name:
        raise ValueError("empty name")
    meridian = complex(float(rec["meridian_re"]), float(rec["meridian_im"]))
    if meridian.imag < 0:
        warnings.warn(
            "meridian of %s has negative imaginary part; conjugating" % name,
            GeometryWarning,
            stacklevel=2,
        )
        meridian = meridian.conjugate()
    pd_field = (rec["pd"] or "").strip()
    return CensusRow(
        name=name,
        crossings=int(rec["crossings"]),
        sigma=int(rec["signature"]),
        volume=float(rec["volume"]),
        inj=float(rec["inj_radius"]),
        meridian=meridian,
        longitude=float(rec["longitude"]),
        geodesics=parse_geodesics(rec["geodesics"] or ""),
        pd=DiagramCode.parse(pd_field) if pd_field else None,
    )


def ingest(source):
    """Read a census CSV, given as a path or an open text stream, into
    validated rows. A stream is read but not closed, and messages name it
    by its `name` attribute, "<stdin>" for standard input.

    Malformed rows raise CensusFormatError with the offending line number;
    soft geometry warnings are re-issued with row context attached.
    """
    if hasattr(source, "read"):
        fh = contextlib.nullcontext(source)
        where = short = getattr(source, "name", "<stream>")
    else:
        path = Path(source)
        where, short = path, path.name
        try:
            fh = path.open(newline="", encoding="utf-8")
        except OSError as exc:
            raise CensusFormatError("cannot read %s: %s" % (path, exc)) from exc
    with fh as stream:
        reader = csv.DictReader(stream)
        header = reader.fieldnames
        if header is None:
            raise CensusFormatError("%s: empty file, expected a header row" % where)
        missing = [c for c in _COLUMNS if c not in header]
        if missing:
            raise CensusFormatError(
                "%s: header is missing columns %s" % (where, ", ".join(missing))
            )
        rows = []
        for rec in reader:
            line = reader.line_num
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    row = _parse_row(rec)
                except (ValueError, TypeError) as exc:
                    raise CensusFormatError(
                        "%s line %d: %s" % (where, line, exc)
                    ) from exc
            for w in caught:
                warnings.warn(
                    "%s line %d: %s" % (short, line, w.message),
                    GeometryWarning,
                    stacklevel=2,
                )
            rows.append(row)
    return rows


@dataclass(frozen=True)
class DerivedRow:
    row: CensusRow
    slope: float
    gap: float  # 2*sigma - slope, signed
    c1: float
    sigma_hat: float
    gap_normalized: float  # gap / sqrt(volume)


@dataclass(frozen=True)
class StatsReport:
    rows: tuple
    envelope_b: float
    envelope_c: float
    c1_by_crossing: tuple  # (crossings, max c1, mean c1) per crossing number
    correlation: float | None
    c1_hist: tuple  # (bin lower edge, count) pairs
    envelope_fraction: float | None


def aggregate(derived, envelope_b=2.0, envelope_c=2.0):
    """Fold derived rows into a StatsReport; derive() routes through here,
    so re-aggregating a report's rows reproduces the report. A non-finite
    envelope constant is a ValueError."""
    _require_finite_number(envelope_b, "envelope constant b")
    _require_finite_number(envelope_c, "envelope constant c")
    by_crossing = {}
    for d in derived:
        by_crossing.setdefault(d.row.crossings, []).append(d.c1)
    c1_by_crossing = tuple(
        (c, max(vals), statistics.fmean(vals)) for c, vals in sorted(by_crossing.items())
    )
    try:
        correlation = statistics.correlation(
            [float(d.row.sigma) for d in derived], [d.slope for d in derived]
        )
    except statistics.StatisticsError:
        correlation = None
    bins = {}
    for d in derived:
        lo = round(int(d.c1 / _HIST_BIN) * _HIST_BIN, 2)
        bins[lo] = bins.get(lo, 0) + 1
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
    g = row.geom
    try:
        slope = natural_slope(g.cusp)
        gap = 2 * row.sigma - slope
        return DerivedRow(
            row=row,
            slope=slope,
            gap=gap,
            c1=c1_statistic(g),
            sigma_hat=normalized_signature(g),
            gap_normalized=gap / math.sqrt(row.volume),
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


def emit(report, out_dir):
    """Write derived.csv and plots.json under out_dir; returns both paths.
    Output is byte-identical across runs on equal reports."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "derived.csv"
    json_path = out_dir / "plots.json"
    with csv_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS + _DERIVED_COLUMNS)
        for d in report.rows:
            r = d.row
            writer.writerow(
                [
                    r.name,
                    r.crossings,
                    r.sigma,
                    r.volume,
                    r.inj,
                    r.meridian.real,
                    r.meridian.imag,
                    r.longitude,
                    format_geodesics(r.geodesics),
                    pd_text(r.pd) if r.pd is not None else "",
                    d.slope,
                    d.gap,
                    d.c1,
                    d.sigma_hat,
                    d.gap_normalized,
                ]
            )
    payload = {
        "schema_version": 1,
        "c1_hist": [[lo, count] for lo, count in report.c1_hist],
        "slope_vs_sig": [[d.slope, d.row.sigma] for d in report.rows],
        "c1_by_crossing": [[c, mx, mean] for c, mx, mean in report.c1_by_crossing],
    }
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return csv_path, json_path
