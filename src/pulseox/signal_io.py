"""Parsing, validation, and time-alignment of raw sensor streams.

Streams arrive as CSV files written by the capture side (wrist band with
optical + IMU channels, or a fingertip clip with optical channels only).
Everything downstream works on a regularized :class:`FrameSeries`: a columnar
block of samples on a uniform time grid where dropped samples are explicit
gap markers, never interpolated values.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from . import schema
from .errors import CorruptFile, EmptyStream, MalformedHeader, NonMonotonicBeyondTolerance

WRIST_HEADER = ["t_ms", "red", "ir", "ax", "ay", "az", "gx", "gy", "gz"]
FINGERTIP_HEADER = ["t_ms", "red", "ir"]

SITES = ("wrist_top", "wrist_bottom", "fingertip")
SKIN_TONES = ("light", "medium", "dark", "unknown")

#: Fraction of out-of-order rows above which a capture is considered corrupt.
ORDER_TOLERANCE = 0.01

#: Grid slots per non-gap row above which :func:`regularize` refuses a stream:
#: a few stray timestamps must not size the grid of a whole run.
MAX_SLOTS_PER_ROW = 10

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class StreamMeta:
    nominal_rate_hz: float = 25.0
    site: str = "wrist_top"
    subject_id: str = ""
    skin_tone: str = "unknown"

    def __post_init__(self):
        if not 0 < self.nominal_rate_hz < np.inf:
            raise ValueError(f"nominal_rate_hz must be positive and finite, got {self.nominal_rate_hz}")
        if self.site not in SITES:
            raise ValueError(f"unknown site {self.site!r}")
        if self.skin_tone not in SKIN_TONES:
            raise ValueError(f"unknown skin_tone {self.skin_tone!r}")


@dataclass
class FrameSeries:
    """Columnar frame storage; gap rows carry NaN values and ``gap=True``."""

    t_ms: np.ndarray
    red: np.ndarray
    ir: np.ndarray
    accel_mag: np.ndarray
    gyro_mag: np.ndarray
    gap: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.t_ms = np.asarray(self.t_ms, dtype=np.int64)
        for name in ("red", "ir", "accel_mag", "gyro_mag"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.gap is None:
            self.gap = np.zeros(len(self.t_ms), dtype=bool)
        else:
            self.gap = np.asarray(self.gap, dtype=bool)

    def __len__(self):
        return len(self.t_ms)

    def channel(self, name: str) -> np.ndarray:
        if name not in ("red", "ir", "accel_mag", "gyro_mag"):
            raise KeyError(name)
        return getattr(self, name)

    def windows(self, window_len: int, step: int):
        """Every complete window of ``window_len`` samples, ``step`` samples apart.

        Returns ``(starts, t_end, has_gap)``: start indices, window-end
        timestamps, and whether a window holds a gap slot.
        """
        starts = np.arange(0, max(len(self) - window_len + 1, 0), step)
        gaps_before = np.concatenate(([0], np.cumsum(self.gap)))
        has_gap = gaps_before[starts + window_len] > gaps_before[starts]
        return starts, self.t_ms[starts + window_len - 1], has_gap

    def rows(self, name: str, starts, window_len: int) -> np.ndarray:
        """One channel's windows of ``window_len`` samples at ``starts``, one
        per row, as a C-contiguous copy."""
        x = self.channel(name)
        if len(x) < window_len:  # no complete window, so ``starts`` is empty
            return np.empty((0, window_len))
        return np.lib.stride_tricks.sliding_window_view(x, window_len)[starts]


#: Windows whose statistics and features are computed at a time. Every step
#: walked in blocks works row by row, so the block size changes no bit of any
#: output; it bounds the working memory. Beyond its output, feature
#: extraction of the whole catalog peaks at about 3.9 MB under
#: ``tracemalloc`` at 512 windows of 100 samples: the AR fits, 128 windows at
#: a time, take about 3.7 MB, and the 68 other columns about 2.1 MB.
#: Inference decides 512 gate-passing windows at a time, then extracts and
#: predicts 512 of the windows left open at a time.
#: ``spo2.matrix_stats`` scrubs each channel once and keeps its slopes
#: whole: their BLAS bits held only in blocks of a multiple of 8 rows.
BLOCK_WINDOWS = 512


def blocks(n: int):
    """Slices of ``range(n)`` of ``BLOCK_WINDOWS`` windows each."""
    return [slice(i, i + BLOCK_WINDOWS) for i in range(0, n, BLOCK_WINDOWS)]


def meta_path(stream_path):
    return pathlib.Path(stream_path).with_suffix(".meta")


def load_meta(stream_path, default_site="wrist_top") -> StreamMeta:
    """The JSON sidecar next to a stream file, read by :mod:`pulseox.schema`
    with its faults as a malformed stream file, or the defaults without one.
    Its keys are ``rate_hz``, ``site``, ``subject_id`` and ``skin_tone``."""
    p = meta_path(stream_path)
    if not p.exists():
        return StreamMeta(site=default_site)
    d = {"rate_hz": StreamMeta.nominal_rate_hz, "site": default_site, "subject_id": "", "skin_tone": "unknown"}
    d.update(schema.fields(schema.load(p, CorruptFile), d, p, CorruptFile))
    with schema.checked(f"{p}: ", CorruptFile):
        return StreamMeta(d["rate_hz"], d["site"], d["subject_id"], d["skin_tone"])


def save_meta(stream_path, meta: StreamMeta):
    doc = {
        "rate_hz": meta.nominal_rate_hz,
        "site": meta.site,
        "subject_id": meta.subject_id,
        "skin_tone": meta.skin_tone,
    }
    with open(meta_path(stream_path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def parse_stream(path, kind: str):
    """Parse a wrist or fingertip CSV into a :class:`FrameSeries`.

    Returns ``(frames, meta, n_dropped)`` where ``n_dropped`` counts malformed
    rows (wrong field count, blank, non-numeric fields, a timestamp outside
    int64, negative optical values, non-finite values). Frames are sorted by
    timestamp with duplicate timestamps collapsed to the last occurrence, and
    carry the motion magnitudes of the IMU axes (zero for a fingertip clip).
    Raises :class:`NonMonotonicBeyondTolerance` when more than 1% of rows
    arrive out of order, which signals a corrupt capture rather than ordinary
    jitter, and :class:`CorruptFile` when the file is not UTF-8 text or holds
    a cell longer than ``csv.field_size_limit()``. A UTF-8 byte-order mark at
    the start of the file, as spreadsheet "CSV UTF-8" exports write it, is
    skipped.

    The file is read once. Its rows come from one ``np.loadtxt`` pass
    (:func:`_columns`) where that pass is sure to read them as the
    ``csv.reader`` loop of :func:`_rows` does; otherwise from the loop, which
    is the fallback and the reference.
    """
    if kind not in ("wrist", "fingertip"):
        raise ValueError(f"unknown stream kind {kind!r}")
    expected = WRIST_HEADER if kind == "wrist" else FINGERTIP_HEADER
    try:
        # Decoded in 1 MiB pieces: with one whole-file bytes object freed after
        # decoding, a 60-minute stream's `spo2` run peaked at 108 or 126 MB,
        # depending only on where glibc's heap put things.
        with open(path, encoding="utf-8-sig", newline="") as fh:
            text = "".join(iter(lambda: fh.read(1 << 20), ""))
    except UnicodeDecodeError as e:
        raise CorruptFile(f"{path}: not UTF-8 text: {e}") from e

    t, vals, dropped = _columns(text, expected) or _rows(text, expected, path)
    ok = (vals[:, 0] >= 0) & (vals[:, 1] >= 0) & np.isfinite(vals).all(axis=1)
    dropped += int(np.count_nonzero(~ok))
    keep = np.flatnonzero(ok)  # rows are picked by index and gathered once
    t = t[keep]

    out_of_order = int(np.count_nonzero(t[1:] < t[:-1]))
    if len(t) and out_of_order > ORDER_TOLERANCE * len(t):
        raise NonMonotonicBeyondTolerance(f"{path}: {out_of_order}/{len(t)} rows out of order")

    # Sort, then collapse duplicate timestamps keeping the last occurrence
    # (append-only capture semantics: later rows supersede earlier ones).
    order = np.argsort(t, kind="stable")
    t, keep = t[order], keep[order]
    last = np.ones(len(t), dtype=bool)
    last[:-1] = t[1:] != t[:-1]
    t, keep = t[last], keep[last]
    red, ir, *imu = (vals[keep, j] for j in range(len(expected) - 1))
    if kind == "wrist":
        ax, ay, az, gx, gy, gz = imu
        with np.errstate(over="ignore"):
            accel, gyro = np.sqrt(ax * ax + ay * ay + az * az), np.sqrt(gx * gx + gy * gy + gz * gz)
    else:
        accel, gyro = np.zeros(len(t)), np.zeros(len(t))

    meta = load_meta(path, default_site="fingertip" if kind == "fingertip" else "wrist_top")
    return FrameSeries(t, red, ir, accel, gyro), meta, dropped


#: Characters that keep a file from :func:`_columns`: ``"`` and a ``\r``
#: outside a ``\r\n`` change how the ``csv`` module splits records, and
#: ``np.loadtxt`` reads ``\x1c``-``\x1f`` as spaces around a number where
#: ``int``/``float`` reject them.
_LOOP_ONLY = '\r"\x1c\x1d\x1e\x1f'

#: Characters of text that :func:`_columns` splits into lines at a time.
_CHUNK_CHARS = 1 << 16


def _columns(text: str, expected):
    """A stream file's data rows as ``(t_ms, values, 0)`` from one
    ``np.loadtxt`` pass, or None where :func:`_rows` might read them
    otherwise: non-ASCII text (``np.loadtxt`` reads some letters as digits,
    ``int``/``float`` read Unicode digits and spaces), a character of
    ``_LOOP_ONLY`` once each ``\r\n`` is read as ``\n`` (the ``csv`` module
    ends a record at either), a header other than ``expected``, no data row,
    a blank line (the loop drops it, ``np.loadtxt`` skips it), a line longer
    than ``csv.field_size_limit()``, or a row ``np.loadtxt`` rejects. Short of
    these, each line splits at commas into cells that ``np.loadtxt`` parses
    to the bits ``int``/``float`` give, so the result is :func:`_rows`'."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")  # a lone \r is left, and refused below
    if not text.isascii() or any(c in text for c in _LOOP_ONLY):
        return None
    start, end = text.find("\n") + 1, len(text) - text.endswith("\n")
    if not 0 < start < end or [h.strip() for h in text[: start - 1].split(",")] != expected:
        return None
    limit = csv.field_size_limit()

    def lines():
        # A chunk of lines at a time: a whole file of line strings at once
        # left the heap of a 60-minute stream's run 13 MB higher at its peak.
        pos = start
        while pos < end:
            stop = text.find("\n", pos + _CHUNK_CHARS, end)
            stop = end if stop < 0 else stop
            chunk = text[pos:stop].split("\n")
            if "" in chunk or max(map(len, chunk)) > limit:
                raise ValueError("a blank line, or a line longer than the csv field limit")
            yield from chunk
            pos = stop + 1

    dtype = np.dtype([("t_ms", np.int64), ("values", np.float64, (len(expected) - 1,))])
    try:
        rows = np.loadtxt(lines(), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    return rows["t_ms"], rows["values"], 0


def _rows(text: str, expected, path):
    """A stream file's data rows as ``(t_ms, values, n_dropped)``, one ``csv``
    record at a time; a row is dropped for a wrong field count, a cell that
    ``int``/``float`` reject, or a timestamp outside int64. Raises
    :class:`MalformedHeader` for a header other than ``expected`` and
    :class:`CorruptFile`, naming the line, for text the ``csv`` module rejects
    (a cell longer than ``csv.field_size_limit()``)."""
    t, vals = [], []
    dropped = 0
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedHeader(f"{path}: empty file")
        if [h.strip() for h in header] != expected:
            raise MalformedHeader(f"{path}: expected header {expected}, got {header}")
        for raw in reader:
            if len(raw) != len(expected):
                dropped += 1
                continue
            try:
                ti = int(raw[0])
                row = list(map(float, raw[1:]))
            except ValueError:
                dropped += 1
                continue
            if not _INT64_MIN <= ti <= _INT64_MAX:
                dropped += 1
                continue
            t.append(ti)
            vals.extend(row)
    except csv.Error as e:
        raise CorruptFile(f"{path}: line {reader.line_num}: {e}") from e
    t = np.array(t, dtype=np.int64)
    return t, np.array(vals, dtype=float).reshape(len(t), len(expected) - 1), dropped


def write_csv(path, header, rows):
    """Write a header and rows as CSV.

    Floats are written as their shortest round-trip repr, so cells must be
    Python floats (``tolist()``/``float()``), never numpy scalars.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def csv_float(v):
    """CSV cell of an optional number: empty when absent."""
    return "" if v is None else float(v)


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_stream(path, series: FrameSeries, kind: str, meta: StreamMeta | None = None):
    """Write a frame series in the CSV format :func:`parse_stream` reads.

    Motion magnitudes are stored on the x axes with y/z zeroed, so the
    round-trip through :func:`parse_stream` reproduces the magnitudes exactly.
    Gap rows are omitted (a capture never writes samples it did not take).
    """
    ok = ~series.gap
    cols = [series.t_ms[ok].tolist(), series.red[ok].tolist(), series.ir[ok].tolist()]
    if kind == "fingertip":
        write_csv(path, FINGERTIP_HEADER, zip(*cols))
    else:
        zero = ["0.0"] * len(cols[0])
        accel, gyro = series.accel_mag[ok].tolist(), series.gyro_mag[ok].tolist()
        write_csv(path, WRIST_HEADER, zip(*cols, accel, zero, zero, gyro, zero, zero))
    if meta is not None:
        save_meta(path, meta)


def nearest_within(src_t, query_t, tolerance):
    """Per query time: the index of the nearest ``src_t`` entry (the earlier
    one on a tie) and whether it lies within ``tolerance``. ``src_t`` is sorted."""
    idx = np.clip(np.searchsorted(src_t, query_t), 1, len(src_t) - 1)
    left = idx - 1
    pick = np.where(query_t - src_t[left] <= src_t[idx] - query_t, left, idx)
    return pick, np.abs(src_t[pick] - query_t) <= tolerance


def regularize(series: FrameSeries, meta: StreamMeta) -> FrameSeries:
    """Snap frames onto a uniform 1/rate grid via nearest-neighbor picks.

    Grid slots with no source sample within half a sample period become gap
    markers (NaN values, ``gap=True``); values are never interpolated because
    the downstream AC estimate assumes real samples. A stream whose grid would
    hold more than ``MAX_SLOTS_PER_ROW`` slots per frame raises
    :class:`EmptyStream`.
    """
    if len(series) < 2:
        raise EmptyStream("need at least 2 frames to regularize")
    period = 1000.0 / meta.nominal_rate_hz
    src_t = series.t_ms[~series.gap].astype(float)
    if len(src_t) < 2:
        raise EmptyStream("need at least 2 non-gap frames to regularize")
    t0 = src_t[0]
    n_slots = np.rint(float(src_t[-1] - t0) / period) + 1  # a Python division: inf at an extreme rate, no warning
    if not (np.isfinite(period) and n_slots <= MAX_SLOTS_PER_ROW * len(src_t)):
        raise EmptyStream(
            f"{len(src_t)} frames span {n_slots:.0f} grid slots at {meta.nominal_rate_hz:g} Hz, "
            f"more than {MAX_SLOTS_PER_ROW} per frame or no finite grid"
        )
    grid = t0 + period * np.arange(int(n_slots))

    pick, ok = nearest_within(src_t, grid, period / 2.0 + 1e-9)
    src_rows = np.flatnonzero(~series.gap)[pick]
    t_out = np.rint(grid).astype(np.int64)

    def take(channel):
        out = channel[src_rows].astype(float)
        out[~ok] = np.nan
        return out

    return FrameSeries(
        t_out,
        take(series.red),
        take(series.ir),
        take(series.accel_mag),
        take(series.gyro_mag),
        ~ok,
    )


def load_frames(path, kind: str):
    """Convenience loader: parse, then regularize."""
    frames, meta, _ = parse_stream(path, kind)
    return regularize(frames, meta), meta
