"""Tests of the benchmark itself: generators, output checks and tracer."""

import json
import sys
import time
from pathlib import Path

import pytest

import jobs as jobs_mod
import run
import spans
import speed

tl = run.import_twistlab()
import twistlab.cli  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _files(root: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", jobs_mod.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    ws_a, jobs_a = jobs_mod.build(workload, 7, str(tmp_path / "a"))
    _, jobs_b = jobs_mod.build(workload, 7, str(tmp_path / "b"))
    _, jobs_c = jobs_mod.build(workload, 8, str(tmp_path / "c"))
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert [j.id for j in jobs_a] == [j.id for j in jobs_b] == [j.id for j in jobs_c]
    # Another seed changes order and gauges, never which files or sizes.
    assert a.keys() == c.keys() and a != c
    assert [j.K.counts() for j in jobs_a] == [j.K.counts() for j in jobs_c]
    ws_a.verify(tl)


def _small_job(tmp_path, command):
    ws, jobs = jobs_mod.build("groups" if command == "homology" else "combinatorics",
                              3, str(tmp_path))
    job = next(j for j in jobs if j.command == command)
    status, text = twistlab.cli.run_cli(job.argv)
    return job, status, text


def test_output_check_accepts_the_real_output(tmp_path):
    job, status, text = _small_job(tmp_path, "homology")
    assert jobs_mod.check_job(job, status, text, {job.id: jobs_mod.digest(text)}) == []


def test_output_check_rejects_corrupted_groups(tmp_path):
    job, status, text = _small_job(tmp_path, "homology")
    assert "H_1 = Z^2" in text
    bad = text.replace("H_1 = Z^2", "H_1 = Z")
    problems = jobs_mod.check_job(job, status, bad, {})
    assert any("Euler" in p for p in problems)
    assert any("closed form" in p for p in problems)
    assert jobs_mod.check_job(job, 1, text, {}) == ["exit status 1"]


def test_output_check_rejects_corrupted_orientation(tmp_path):
    job, status, text = _small_job(tmp_path, "orientation")
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("edge "))
    lines[i] = lines[i][:-2] + ("-1" if lines[i].endswith("+1") else "+1")
    assert jobs_mod.check_job(job, status, "\n".join(lines) + "\n", {})


def test_digest_check_catches_changes_the_oracles_allow(tmp_path):
    job, status, text = _small_job(tmp_path, "homology")
    digests = {job.id: jobs_mod.digest(text)}
    renamed = text.replace("coefficients const1", "coefficients constant")
    assert renamed != text
    assert jobs_mod.check_job(job, status, renamed, {}) == []
    assert jobs_mod.check_job(job, status, renamed, digests) == [
        "output differs from the recorded digest"
    ]


def test_missing_digest_file_stops_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_mod, "DIGEST_FILE", tmp_path / "digests.json")
    with pytest.raises(SystemExit):
        jobs_mod.load_digests("groups", 0)


def _namespace_snapshot():
    mods = {n: m for n, m in sys.modules.items()
            if n == "twistlab" or n.startswith("twistlab.")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    for cls in (tl.Matrix, tl.FreeComplex, tl.ChainMapData, tl.LocalSystem,
                tl.TwistedComplex):
        snap.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return snap


def test_tracer_restores_every_wrapped_name():
    before = _namespace_snapshot()
    tracer = spans.Tracer()
    with tracer:
        during = _namespace_snapshot()
        # By-value imports are rebound to the same wrapper as the original.
        assert tl.homology.solve is tl.matrices.solve is tl.solve
        assert tl.homology.solve.__wrapped__ is before[("twistlab.matrices", "solve")]
        assert tl.twisted.induced_map_on_homology is tl.homology.induced_map_on_homology
        assert tl.cli.compare_les.__wrapped__ is before[("twistlab.twisted", "compare_les")]
    changed = {k for k in before if during.get(k) is not before[k]}
    assert ("twistlab.cli", "duality_report") in changed
    assert ("Matrix", "mul") in changed
    assert ("LocalSystem", "__init__") in changed
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced_counts(tmp_path, name):
    _, jobs = jobs_mod.build("les", 11, str(tmp_path / name))
    small = [j for j in jobs if j.K.counts()[0] <= 4][:8]
    tracer = spans.Tracer()
    with tracer:
        for i, job in enumerate(small):
            tracer.job = i
            status, text = tl.cli.run_cli(job.argv)
            assert jobs_mod.check_job(job, status, text, {}) == []
    metrics = tracer.metrics()
    return {k: v for k, v in metrics.items() if k not in spans.TIMED}, metrics


def test_per_layer_counts_repeat_exactly(tmp_path):
    first, metrics = _traced_counts(tmp_path, "one")
    second, _ = _traced_counts(tmp_path, "two")
    assert first == second
    assert first["homology.class_coordinates.calls"] > 0
    assert first["twisted.TwistedComplex.dup_frac"] > 0
    assert abs(sum(metrics[f"{m}.self_frac"] for m in spans.MODULES) - 1.0) < 1e-9


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(jobs_mod.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(40)], 40)
    assert value == 29.0 and pct == 75.0
    # Pooled over passes, the same percentile by nearest rank.
    assert run.tail([float(i) for i in range(40)] * 3, 40) == (29.0, 75.0)


def test_correction_scales_by_the_reference_units():
    nominal = speed.NOMINAL_S
    assert speed.corrected(1.0, [nominal] * 10) == pytest.approx(1.0)
    assert speed.corrected(1.0, [2 * nominal] * 10) == pytest.approx(0.5)
    # A unit the machine stopped for a while is left out with the slowest fifth.
    assert speed.corrected(1.0, [nominal] * 9 + [100 * nominal]) == pytest.approx(1.0)


def test_sampler_subtracts_the_units_it_times():
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        busy = time.perf_counter() - t0
    assert len(sampler.samples) >= 5
    assert sampler.spent > 0
    assert busy - sampler.spent - 0.01 < sampler.seconds < busy + 0.01
