"""Parsing, validation, and time-alignment of raw sensor streams.

Streams arrive as CSV files written by the capture side (wrist band with
optical + IMU channels, or a fingertip clip with optical channels only).
Everything downstream works on a regularized :class:`FrameSeries`: a columnar
block of samples on a uniform time grid where dropped samples are explicit
gap markers, never interpolated values.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

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
#: output; it bounds the working memory. Feature extraction takes about 9 MB
#: at 512 windows of 100 samples, most of it the AR design matrix and its SVD
#: factors. The slopes of ``spo2.matrix_stats`` are not blocked: their BLAS
#: product sums a row differently with the rows around it.
BLOCK_WINDOWS = 512


def blocks(n: int):
    """Slices of ``range(n)`` of ``BLOCK_WINDOWS`` windows each."""
    return [slice(i, i + BLOCK_WINDOWS) for i in range(0, n, BLOCK_WINDOWS)]


def meta_path(stream_path):
    import pathlib

    return pathlib.Path(stream_path).with_suffix(".meta")


def load_meta(stream_path, default_site="wrist_top") -> StreamMeta:
    """Read the JSON sidecar next to a stream file, or fall back to defaults;
    a sidecar that is not a JSON object of valid metadata is a corrupt file."""
    p = meta_path(stream_path)
    if not p.exists():
        return StreamMeta(site=default_site)
    try:
        with open(p, encoding="utf-8") as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise TypeError("not a JSON object")
        return StreamMeta(
            nominal_rate_hz=float(d.get("rate_hz", 25.0)),
            site=d.get("site", default_site),
            subject_id=d.get("subject_id", ""),
            skin_tone=d.get("skin_tone", "unknown"),
        )
    except (TypeError, ValueError) as e:
        raise CorruptFile(f"{p}: {e}") from e


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
    rows (wrong field count, non-numeric fields, a timestamp outside int64,
    negative optical values, non-finite values). Frames are sorted by
    timestamp with duplicate timestamps collapsed to the last occurrence, and
    carry the motion magnitudes of the IMU axes (zero for a fingertip clip).
    Raises :class:`NonMonotonicBeyondTolerance` when more than 1% of rows
    arrive out of order, which signals a corrupt capture rather than ordinary
    jitter.
    """
    if kind not in ("wrist", "fingertip"):
        raise ValueError(f"unknown stream kind {kind!r}")
    expected = WRIST_HEADER if kind == "wrist" else FINGERTIP_HEADER

    t, vals = [], []
    dropped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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

    t = np.array(t, dtype=np.int64)
    vals = np.array(vals, dtype=float).reshape(len(t), len(expected) - 1)
    ok = (vals[:, 0] >= 0) & (vals[:, 1] >= 0) & np.isfinite(vals).all(axis=1)
    dropped += int(np.count_nonzero(~ok))
    t, vals = t[ok], vals[ok]

    out_of_order = int(np.count_nonzero(t[1:] < t[:-1]))
    if len(t) and out_of_order > ORDER_TOLERANCE * len(t):
        raise NonMonotonicBeyondTolerance(f"{path}: {out_of_order}/{len(t)} rows out of order")

    # Sort, then collapse duplicate timestamps keeping the last occurrence
    # (append-only capture semantics: later rows supersede earlier ones).
    order = np.argsort(t, kind="stable")
    t, vals = t[order], vals[order]
    last = np.ones(len(t), dtype=bool)
    last[:-1] = t[1:] != t[:-1]
    t = t[last]
    red, ir, *imu = np.ascontiguousarray(vals[last].T)
    if kind == "wrist":
        ax, ay, az, gx, gy, gz = imu
        with np.errstate(over="ignore"):
            accel, gyro = np.sqrt(ax * ax + ay * ay + az * az), np.sqrt(gx * gx + gy * gy + gz * gz)
    else:
        accel, gyro = np.zeros(len(t)), np.zeros(len(t))

    meta = load_meta(path, default_site="fingertip" if kind == "fingertip" else "wrist_top")
    return FrameSeries(t, red, ir, accel, gyro), meta, dropped


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
    n_slots = int(round((src_t[-1] - t0) / period)) + 1
    if n_slots > MAX_SLOTS_PER_ROW * len(src_t):
        raise EmptyStream(
            f"{len(src_t)} frames span {n_slots} grid slots at {meta.nominal_rate_hz:g} Hz, "
            f"more than {MAX_SLOTS_PER_ROW} per frame"
        )
    grid = t0 + period * np.arange(n_slots)

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
