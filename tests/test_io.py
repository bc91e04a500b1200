import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aesynth import (
    AcquisitionSpec,
    ArrayGeometry,
    Medium,
    PressureModel,
    PulseSpec,
    SFieldGrid,
    simulate_dataset,
    single_element_sequence,
    focused_sequence,
)
from aesynth.errors import FileFormatError
from aesynth.forward import ChannelDataSet, TransmitEvent
from aesynth.io import (
    atomic_write_bytes,
    channel_file_bytes,
    format_metric,
    read_channel_file,
    read_sidecar,
    read_values_csv,
    sha256_file,
    write_channel_file,
    write_envelope_pgm,
    write_linear_pgm,
    write_sidecar,
    write_values_csv,
)


@pytest.fixture
def dataset():
    g = ArrayGeometry(num_elements=6, pitch=0.4e-3)
    medium = Medium(sos=1480.0)
    pulse = PulseSpec(center_frequency=2e6, num_cycles=1, sample_rate=16e6)
    values = np.zeros((4, 4))
    values[2, 1] = 1.0
    s = SFieldGrid(origin=(-1e-3, 6e-3), dx=5e-4, dz=5e-4, values=values)
    events = single_element_sequence(g) + focused_sequence(g, medium, 8e-3, [0.0])
    return simulate_dataset(
        s, events, g, medium, pulse, PressureModel(),
        AcquisitionSpec(k=2, noise_power=0.01), seed=5, max_depth=12e-3,
    )


class TestChannelFile:
    def test_round_trip_bit_exact(self, tmp_path, dataset):
        path = tmp_path / "data.aecd"
        digest = write_channel_file(path, dataset)
        assert sha256_file(path) == digest
        loaded = read_channel_file(path)
        rewritten = channel_file_bytes(loaded)
        assert rewritten == path.read_bytes()

    def test_fields_survive(self, tmp_path, dataset):
        path = tmp_path / "data.aecd"
        write_channel_file(path, dataset)
        loaded = read_channel_file(path)
        assert loaded.num_events == dataset.num_events
        assert loaded.num_samples == dataset.num_samples
        assert loaded.sample_rate == dataset.sample_rate
        assert loaded.t0 == dataset.t0
        assert loaded.geometry.num_elements == 6
        assert loaded.geometry.pitch == dataset.geometry.pitch
        assert loaded.medium.sos == dataset.medium.sos
        np.testing.assert_allclose(
            loaded.channels, dataset.channels.astype(np.float32), rtol=0
        )
        for a, b in zip(loaded.events, dataset.events):
            np.testing.assert_array_equal(a.delays, b.delays)
            np.testing.assert_array_equal(a.active, b.active)

    def test_header_layout(self, tmp_path, dataset):
        path = tmp_path / "data.aecd"
        write_channel_file(path, dataset)
        blob = path.read_bytes()
        assert blob[:4] == b"AECD"
        assert int.from_bytes(blob[4:6], "little") == 1
        assert int.from_bytes(blob[6:8], "little") == dataset.num_events
        assert int.from_bytes(blob[8:12], "little") == dataset.num_samples
        assert np.frombuffer(blob[12:20], "<f8")[0] == dataset.sample_rate

    def test_bad_magic_rejected(self, tmp_path, dataset):
        path = tmp_path / "data.aecd"
        write_channel_file(path, dataset)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError):
            read_channel_file(path)

    def test_truncated_rejected(self, tmp_path, dataset):
        path = tmp_path / "data.aecd"
        write_channel_file(path, dataset)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(FileFormatError):
            read_channel_file(path)

    @pytest.mark.parametrize("fs", [0.0, -16e6, float("nan"), float("inf")])
    def test_bad_sample_rate_rejected(self, tmp_path, dataset, fs):
        path = tmp_path / "data.aecd"
        write_channel_file(path, dataset)
        blob = bytearray(path.read_bytes())
        blob[12:20] = np.float64(fs).astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="sample_rate"):
            read_channel_file(path)

    @pytest.mark.parametrize("t0", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_t0_rejected(self, tmp_path, dataset, t0):
        path = tmp_path / "data.aecd"
        write_channel_file(path, dataset)
        blob = bytearray(path.read_bytes())
        blob[20:28] = np.float64(t0).astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="t0"):
            read_channel_file(path)

    def test_element_count_beyond_u16_rejected(self, tmp_path):
        m = 70_000
        active = np.zeros(m, dtype=bool)
        active[0] = True
        data = ChannelDataSet(
            channels=np.zeros((1, 8)), sample_rate=16e6, t0=0.0,
            events=(TransmitEvent(delays=np.zeros(m), active=active),),
            geometry=ArrayGeometry(num_elements=m, pitch=0.3e-3),
            medium=Medium(sos=1480.0),
        )
        with pytest.raises(FileFormatError, match="array elements"):
            channel_file_bytes(data)
        path = tmp_path / "big.aecd"
        with pytest.raises(FileFormatError):
            write_channel_file(path, data)
        assert list(tmp_path.iterdir()) == []

    def test_no_partial_file_left_behind(self, tmp_path, dataset):
        path = tmp_path / "sub" / "data.aecd"
        with pytest.raises(FileNotFoundError):
            write_channel_file(path, dataset)
        assert not path.exists()


_TINY = np.finfo(float).tiny


def _csv_arrays(elements, dtype=float):
    """1x1, 1xn, nx1 and small mxn arrays of ``elements`` as ``dtype``, viewed as float64."""
    n = st.integers(1, 40)
    shapes = st.one_of(st.just((1, 1)), n.map(lambda k: (1, k)), n.map(lambda k: (k, 1)),
                       st.tuples(st.integers(2, 6), st.integers(2, 6)))
    return shapes.flatmap(lambda shape: st.lists(
        elements, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda v: np.array(v, dtype=dtype).view(np.float64).reshape(shape)))


class TestImageFiles:
    def test_values_csv_round_trip(self, tmp_path, rng):
        values = rng.normal(size=(12, 7))
        path = tmp_path / "img.csv"
        write_values_csv(path, values)
        loaded = read_values_csv(path, 12, 7)
        np.testing.assert_allclose(loaded, values, rtol=1e-9)
        # one row per depth sample
        assert len(path.read_text().strip().splitlines()) == 12

    def test_values_csv_matches_per_value_formatter(self, tmp_path):
        tiny = np.finfo(float).tiny
        values = np.array([
            [np.nan, np.inf, -np.inf, -0.0, 0.0],
            [5e-324, tiny / 3, -tiny / 7, 1e300, -1e300],
            [1.5, -123.456e-20, np.finfo(float).max, 1.0 / 3.0, -2.0],
        ])
        path = tmp_path / "img.csv"
        write_values_csv(path, values)
        old = "".join(",".join(f"{v:.10e}" for v in row) + "\n" for row in values)
        assert path.read_bytes() == old.encode()

    @settings(max_examples=300, deadline=None)
    @given(values=st.one_of(_csv_arrays(st.integers(0, 2**64 - 1), np.uint64), _csv_arrays(st.floats())))
    @example(values=np.array([[0.0, -0.0, 5e-324, -5e-324, _TINY / 3, -_TINY / 7]]))
    @example(values=np.array([[9.99999999995], [-9.99999999995e5], [9.99999999995e-5],
                              [9.99999999995e22], [-9.99999999995e-22], [9.99999999995e40]]))
    # exactly halfway at digit 11: round half to even, down and up
    @example(values=np.array([[10000000000.5, 10000000001.5, -12345678901.5, 2.5e-323]]))
    @example(values=np.array([[1e100], [-1e-100], [1.7976931348623157e308], [-1e-308], [2.2e-308]]))
    # the carry to the next exponent, the ends of the exact powers of ten
    # and the doubles just below a power of ten, where log10 rounds up
    @example(values=np.array([[9.999999999996, -9.9999999999996e-7, 9.99999999999e30,
                               1e-12, 9.9e-13, -1.5e-13, 9.999999999e-13, 5e32, 9.999999999999e32,
                               1e33, 99999.99999999999, 0.09999999999999999, 9.999999999999999e21]]))
    @example(values=np.array([[np.nan, np.inf, -np.inf]]))
    @example(values=np.array([[-0.0]]))
    def test_values_csv_matches_formatter_on_any_double(self, tmp_path_factory, values):
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        write_values_csv(path, values)
        rows = (",".join(f"{v:.10e}" for v in row) + "\n" for row in values.tolist())
        assert path.read_bytes() == "".join(rows).encode()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (5,), ()])
    def test_values_csv_degenerate_shapes(self, tmp_path, shape):
        path = tmp_path / "img.csv"
        write_values_csv(path, np.full(shape, -1.5))
        rows = np.atleast_2d(np.full(shape, -1.5)).tolist() or [[]]
        assert path.read_bytes() == "".join(
            ",".join(f"{v:.10e}" for v in row) + "\n" for row in rows
        ).encode()

    def test_envelope_pgm_format_and_scaling(self, tmp_path):
        env = np.zeros((3, 4))
        env[1, 2] = 1.0
        env[0, 0] = 0.1  # -20 dB -> mid scale
        path = tmp_path / "img.pgm"
        write_envelope_pgm(path, env)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")
        pixels = np.frombuffer(blob[len(b"P5\n4 3\n255\n"):], dtype=np.uint8).reshape(3, 4)
        assert pixels[1, 2] == 255
        assert pixels[0, 0] == round(255 * (1 - 20 / 40))
        assert pixels[2, 2] == 0  # zero envelope clips to black

    def test_envelope_pgm_all_zero(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_envelope_pgm(path, np.zeros((2, 2)))
        pixels = np.frombuffer(path.read_bytes()[-4:], dtype=np.uint8)
        np.testing.assert_array_equal(pixels, 0)

    def test_linear_pgm_maps_unit_scale(self, tmp_path):
        vals = np.array([[0.0, 0.5, 1.0]])
        path = tmp_path / "map.pgm"
        write_linear_pgm(path, vals, peak=1.0)
        pixels = np.frombuffer(path.read_bytes()[-3:], dtype=np.uint8)
        np.testing.assert_array_equal(pixels, [0, 128, 255])


class TestSidecarAndCsv:
    def test_sidecar_round_trip(self, tmp_path):
        entries = {"method": "sa", "f_number": "1.5", "nx": "64"}
        path = tmp_path / "meta.txt"
        write_sidecar(path, entries)
        assert read_sidecar(path) == entries

    def test_format_metric(self):
        assert format_metric(None) == ""
        assert format_metric(float("-inf")) == "-inf"
        assert format_metric(1.25) == "1.250000"
        assert format_metric("bm") == "bm"


class TestAtomicWrite:
    def test_concurrent_writers_leave_one_complete_payload(self, tmp_path, monkeypatch):
        # both writers finish their temp files before either renames, the
        # interleaving under which a shared temp name loses a write
        path = tmp_path / "shared.bin"
        payloads = [bytes([i]) * 200_000 for i in (1, 2)]
        both_written = threading.Barrier(2, timeout=10)
        real_replace = os.replace

        def replace_after_both(src, dst):
            both_written.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_both)
        errors = []

        def writer(payload):
            try:
                for _ in range(5):
                    atomic_write_bytes(path, payload)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert path.read_bytes() in payloads
        assert [f.name for f in tmp_path.iterdir()] == ["shared.bin"]

    def test_failed_write_removes_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"old"
        assert [f.name for f in tmp_path.iterdir()] == ["out.bin"]

    def test_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"x")
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
