"""File formats.

Channel data (``.aecd``), little-endian throughout::

    offset  type                 field
    0       4 bytes              magic "AECD"
    4       u16                  format version (1)
    6       u16                  number of transmit events M_tx
    8       u32                  samples per trace T
    12      f64                  sample_rate [Hz]
    20      f64                  t0, time of first sample [s]
    28      f64                  element pitch [m]
    36      f64                  speed of sound [m/s]
    44      f32[M_tx * T]        trace samples, event-major (row-major)
    ...     u16                  number of array elements M
            per event, M_tx times:
                f64[M]           transmit delays [s]
                u8[ceil(M / 8)]  active mask, LSB-first within each byte

Round-tripping a file through read/write reproduces it bit-exactly.

Images are exported as (1) CSV of pre-envelope values, one row per depth
sample, and (2) binary 8-bit PGM of the envelope normalized to its peak and
log-compressed over a -40 dB window; coherence-style maps use a linear PGM
scale.  A sidecar ``key = value`` text file records the grid and
reconstruction parameters next to each image.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .core import ArrayGeometry, Medium
from .errors import FileFormatError
from .forward import ChannelDataSet, TransmitEvent

MAGIC = b"AECD"
VERSION = 1
_HEADER = struct.Struct("<4sHHIdddd")
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
MAX_ELEMENTS = _U16_MAX  # the element count M is stored as a u16

LOG_COMPRESSION_DB = 40.0

# mkstemp creates files readable by the owner only; written files get the
# permissions a plain open() would give them instead.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file and rename so partial files never land on disk.

    The temp file has a unique name in the target's directory, so concurrent
    writers to one path each rename a complete file; the last rename wins.
    It is removed if the write fails.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(f.fileno(), 0o666 & ~_UMASK)
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def channel_file_bytes(data: ChannelDataSet) -> bytes:
    """Serialize a channel data set to the on-disk format.

    Raises ``FileFormatError`` when a count does not fit its header field.
    """
    m_tx, t = data.channels.shape
    m = data.geometry.num_elements
    for name, value, limit in (
        ("transmit events M_tx", m_tx, _U16_MAX),
        ("samples per trace T", t, _U32_MAX),
        ("array elements M", m, MAX_ELEMENTS),
    ):
        if value > limit:
            raise FileFormatError(f"{name} = {value} exceeds the format's limit of {limit}")
    parts = [
        _HEADER.pack(
            MAGIC,
            VERSION,
            m_tx,
            t,
            data.sample_rate,
            data.t0,
            data.geometry.pitch,
            data.medium.sos,
        ),
        np.ascontiguousarray(data.channels, dtype="<f4").tobytes(),
        struct.pack("<H", m),
    ]
    for ev in data.events:
        parts.append(np.ascontiguousarray(ev.delays, dtype="<f8").tobytes())
        parts.append(np.packbits(ev.active, bitorder="little").tobytes())
    return b"".join(parts)


def write_channel_file(path, data: ChannelDataSet) -> str:
    """Write a channel file atomically; returns the file's sha256 digest."""
    blob = channel_file_bytes(data)
    atomic_write_bytes(path, blob)
    return hashlib.sha256(blob).hexdigest()


def read_channel_file(path) -> ChannelDataSet:
    """Read a channel file.

    The array geometry is rebuilt from the header pitch and the event-table
    element count, centered at x = 0 (the format does not store a lateral
    offset).  The pulse description is not stored; reconstruction commands
    take it from the scenario.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise FileFormatError("file too short for header")
    magic, version, m_tx, t, fs, t0, pitch, sos = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FileFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FileFormatError(f"unsupported version {version}")
    if not (math.isfinite(fs) and fs > 0):
        raise FileFormatError(f"sample_rate must be finite and > 0, got {fs}")
    if not math.isfinite(t0):
        raise FileFormatError(f"t0 must be finite, got {t0}")
    off = _HEADER.size
    n_samp = m_tx * t
    if len(blob) < off + 4 * n_samp + 2:
        raise FileFormatError("file truncated in sample block")
    channels = (
        np.frombuffer(blob, dtype="<f4", count=n_samp, offset=off)
        .reshape(m_tx, t)
        .astype(float)
    )
    off += 4 * n_samp
    (m,) = struct.unpack_from("<H", blob, off)
    off += 2
    mask_bytes = (m + 7) // 8
    events = []
    for i in range(m_tx):
        if len(blob) < off + 8 * m + mask_bytes:
            raise FileFormatError(f"file truncated in event table {i}")
        delays = np.frombuffer(blob, dtype="<f8", count=m, offset=off).copy()
        off += 8 * m
        bits = np.frombuffer(blob, dtype=np.uint8, count=mask_bytes, offset=off)
        off += mask_bytes
        active = np.unpackbits(bits, bitorder="little")[:m].astype(bool)
        events.append(TransmitEvent(delays=delays, active=active, label=f"event:{i}"))
    if off != len(blob):
        raise FileFormatError("trailing bytes after event tables")
    return ChannelDataSet(
        channels=channels,
        sample_rate=fs,
        t0=t0,
        events=tuple(events),
        geometry=ArrayGeometry(num_elements=m, pitch=pitch),
        medium=Medium(sos=sos),
        pulse=None,
    )


def write_values_csv(path, values: np.ndarray) -> None:
    """CSV export, one row per depth sample, every value as ``%.10e``."""
    values = np.atleast_2d(values)
    fmt = ",".join(["%.10e"] * values.shape[1])
    rows = [fmt % tuple(row) for row in values.tolist()]
    atomic_write_bytes(path, ("\n".join(rows) + "\n").encode())


def read_values_csv(path, nz: int, nx: int) -> np.ndarray:
    vals = np.loadtxt(path, delimiter=",", ndmin=2)
    if vals.shape != (nz, nx):
        raise FileFormatError(f"CSV shape {vals.shape} does not match grid ({nz}, {nx})")
    return vals


def _pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode() + pixels.astype(np.uint8).tobytes()


def write_envelope_pgm(path, env: np.ndarray) -> None:
    """Envelope PGM: normalized to peak, log-compressed, clipped at -40 dB."""
    env = np.asarray(env, dtype=float)
    peak = env.max()
    if peak <= 0:
        pixels = np.zeros_like(env, dtype=np.uint8)
    else:
        with np.errstate(divide="ignore"):
            db = 20 * np.log10(env / peak)
        pixels = np.clip(
            np.round(255 * (1 + db / LOG_COMPRESSION_DB)), 0, 255
        ).astype(np.uint8)
    atomic_write_bytes(path, _pgm_bytes(pixels))


def write_linear_pgm(path, values: np.ndarray, peak: float | None = None) -> None:
    """Linear-scale PGM (no log compression), for coherence and beam maps."""
    values = np.asarray(values, dtype=float)
    if peak is None:
        peak = values.max() if values.max() > 0 else 1.0
    pixels = np.clip(np.round(255 * values / peak), 0, 255).astype(np.uint8)
    atomic_write_bytes(path, _pgm_bytes(pixels))


def write_sidecar(path, entries: dict) -> None:
    lines = [f"{k} = {v}" for k, v in entries.items()]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def read_sidecar(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FileFormatError(f"bad sidecar line: {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def format_metric(v) -> str:
    """Fixed CSV formatting; empty for missing, inf spelled out."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    v = float(v)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "-inf" if v < 0 else "inf"
    return f"{v:.6f}"


def write_csv_rows(path, header: list[str], rows: list[dict]) -> None:
    """Write dict rows under a fixed header with deterministic formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_metric(row.get(k)) for k in header))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def write_metrics_text(path, report) -> None:
    """Flat key-value dump of a metrics report."""
    entries = {"method": report.method, "image_snr_db": format_metric(report.snr_db)}
    for t in report.targets:
        prefix = f"target.{t.label}"
        entries[f"{prefix}.group"] = t.group or ""
        for key, val in (
            ("peak_x_mm", None if t.peak_x is None else t.peak_x * 1e3),
            ("peak_z_mm", None if t.peak_z is None else t.peak_z * 1e3),
            ("ar_mm", None if t.axial_fwhm is None else t.axial_fwhm * 1e3),
            ("lr_mm", None if t.lateral_fwhm is None else t.lateral_fwhm * 1e3),
            ("psl_db", t.psl_db),
            ("snr_db", t.snr_db),
        ):
            entries[f"{prefix}.{key}"] = format_metric(val)
        if t.error:
            entries[f"{prefix}.error"] = t.error
    write_sidecar(path, entries)
