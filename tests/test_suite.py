import dataclasses
import hashlib
import shutil

from aesynth import cli, suite
from aesynth import io as aio
from aesynth.scenario import shift_depth


def counting(calls, name, func):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)

    return wrapper


def counting_frames(calls, func):
    def wrapper(datasets, *args, **kwargs):
        calls["sa_frame"] += 1
        calls["datasets"] += len(datasets)
        return func(datasets, *args, **kwargs)

    return wrapper


def test_one_beamform_per_scene_and_metrics_from_memory(tmp_path, monkeypatch, capsys):
    calls = {"sa_frame": 0, "datasets": 0, "read_values_csv": 0}
    # the suite reconstructs through cli only, and cli stores no aperture
    for module in (cli, suite):
        for name in ("das_sa", "coherence_factor", "coherence_factor_pl"):
            assert not hasattr(module, name), (module.__name__, name)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "sa_frame", counting_frames(calls, cli.sa_frame))
        patch.setattr(
            aio, "read_values_csv", counting(calls, "read_values_csv", aio.read_values_csv)
        )
        assert suite.run_paper_suite(tmp_path, seed=7) == 0
    # six SA scenes, the amplitude-correction pair and three sham averages, in
    # one pass per medium and one for the pair with the sham averages
    assert calls == {"sa_frame": 3, "datasets": 10, "read_values_csv": 0}

    # the in-memory scores equal those of the bundles read back from disk
    header = ["scene"] + cli.METRICS_HEADER
    expected = [",".join(header)]
    for medium_name in ("saline-points", "nerve-disc"):
        base = suite.bundled_scenario(medium_name.replace("-", "_"))
        base = dataclasses.replace(base, seed=7)
        for shift in suite.DEPTH_SHIFTS_MM:
            scene = suite._with_groups(shift_depth(base, shift))
            tag = f"{medium_name}_d{int(shift):02d}"
            prefixes = [
                str(tmp_path / "images" / f"{tag}_{name}")
                for name in ("sa", "sa_cf", "sa_cfpl", "fus")
            ]
            for row in cli.evaluate_bundles(prefixes, scene):
                row["scene"] = tag
                expected.append(",".join(aio.format_metric(row.get(k)) for k in header))
    assert (tmp_path / "metrics.csv").read_text().splitlines() == expected


def tree_digests(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_batched_passes_write_the_per_frame_tree(tmp_path, monkeypatch, capsys):
    """Splitting every SA pass into one-frame passes changes no byte and no line."""
    out = tmp_path / "suite"
    assert suite.run_paper_suite(out, seed=7) == 0
    batched, batched_stdout = tree_digests(out), capsys.readouterr().out

    frame = cli.sa_frame
    sizes = []

    def one_at_a_time(datasets, *args, **kwargs):
        sizes.append(len(datasets))
        return [result for data in datasets for result in frame([data], *args, **kwargs)]

    monkeypatch.setattr(cli, "sa_frame", one_at_a_time)
    shutil.rmtree(out)  # the same path again: sidecars name their channel files
    assert suite.run_paper_suite(out, seed=7) == 0
    assert sizes == [3, 3, 4]
    assert tree_digests(out) == batched
    assert capsys.readouterr().out == batched_stdout
