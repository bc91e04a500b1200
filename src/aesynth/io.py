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


# ``%.10e`` tables: the exact double powers of ten, and "d.dd", "dddd", "e+XX" as uint32.
_MUL = np.concatenate([np.ones(22), 10.0 ** np.arange(23)])
_DIV = _MUL[::-1].copy()
_LEAD = np.frombuffer("".join(f"{i // 100}.{i % 100:02d}" for i in range(1000)).encode(), np.uint32)
_DIGITS = np.char.zfill(np.arange(10000).astype("S4"), 4).view(np.uint32)  # no 10k str objects
_EXPONENT = np.frombuffer("".join(f"e{i:+03d}" for i in range(-99, 100)).encode(), np.uint32)


def _scaled(a: np.ndarray, e: np.ndarray):
    """``a * 10**(10 - e)`` in one rounding, and where that power is exact."""
    k = 10 - e
    exact = np.abs(k) <= 22
    i = np.where(exact, k + 22, 22).astype(np.intp)
    return a * _MUL[i] / _DIV[i], exact


def _csv_rows(v: np.ndarray) -> list[bytes]:
    """Rows of ``v`` as ``%.10e`` CSV text, in pieces to be joined.

    Scaling into [1e10, 1e11) by an exact power of ten rounds once, so the
    result is on the exact product's side of any k + .5, or on it.  A row
    holding a value within 4 ulps (2**-16 at 1e11) of .5, as a guard, a
    non-finite one or one whose power is not exact (subnormals, below 1e-12,
    above ~1e32) is left to ``%`` whole."""
    a = np.abs(v.ravel())
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
        y, ok = _scaled(a, e)
        off = np.flatnonzero(ok & ((y < 1e10) | (y >= 1e11)))  # log10 one off at a power of ten
        e[off] += np.where(y[off] < 1e10, -1, 1)
        y[off], ok[off] = _scaled(a[off], e[off])
        ok[off] &= (y[off] >= 1e10) & (y[off] < 1e11)
        fast = ok & (np.abs(y - np.floor(y) - 0.5) > 4 * 2.0**-16) | (a == 0)
    rows_ok = fast.reshape(v.shape).all(axis=1)
    fast = np.repeat(rows_ok, v.shape[1])
    n = np.rint(np.where(fast, y, 0.0))
    carry = n == 1e11  # 9.999999999996 prints as 1.0000000000e+01
    n = np.where(carry, 1e10, n).astype(np.int64)
    e = np.where(fast & (a > 0), e + carry, 0).astype(np.intp)
    neg = np.signbit(v.ravel()) & fast
    signed = int(neg.any())  # a leading sign column, 0 where dropped
    cells = np.empty((a.size, 17 + signed), np.uint8)
    cells[:, 0] = neg * ord("-")  # without a sign column, overwritten below
    words = cells[:, signed : signed + 16].view(np.uint32)
    q, r = np.divmod(n, 10**8)
    h = r // 10**4
    words[:] = np.stack([_LEAD[q], _DIGITS[h], _DIGITS[r - h * 10**4], _EXPONENT[e + 99]], axis=1)
    cells.reshape(*v.shape, cells.shape[1])[..., -1] = [ord(",")] * (v.shape[1] - 1) + [ord("\n")]
    blob = cells.tobytes().replace(b"\0", b"") if signed else cells.tobytes()
    # A row left to ``%`` holds 17 bytes a value, after the minus signs of the rows above.
    slow = np.flatnonzero(~rows_ok)
    width, fmt = 17 * v.shape[1], b",".join([b"%.10e"] * v.shape[1]) + b"\n"
    starts = width * slow + np.cumsum(neg.reshape(v.shape).sum(axis=1))[slow]
    pieces, end = [], 0
    for start, row in zip(starts.tolist(), v[slow].tolist()):
        pieces += [blob[end:start], fmt % tuple(row)]
        end = start + width
    return pieces + [blob[end:]]


def write_values_csv(path, values: np.ndarray) -> None:
    """CSV export, one row per depth sample, every value as exactly ``'%.10e' % x``."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    step = max(1, 4096 // max(values.shape[1], 1))  # rows per block of about 4k values
    pieces = [p for i in range(0, len(values), step) for p in _csv_rows(values[i : i + step])]
    atomic_write_bytes(path, b"".join(pieces) if values.size else b"\n" * max(len(values), 1))


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
