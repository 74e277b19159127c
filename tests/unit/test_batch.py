"""Unit tests for batch recompilation (jobs, cache wiring, executors).

Full hybrid recompilations take seconds each, so these tests drive the
*static* pipeline over tiny mini-C binaries — the job/cache/executor
machinery under test is identical; the hybrid path gets one
integration test plus the ``benchmarks/smoke_batch.py`` smoke run.
"""

import json
import os

import pytest

from repro.core import (ArtifactCache, BatchError, RecompileJob, execute_job,
                        jobs_for_group, load_manifest, run_batch)
from repro.minicc import compile_minic


SOURCE = """
int add(int a, int b) { return a + b; }
int main() {
  int total = 0;
  for (int i = 0; i < 10; i = i + 1) total = add(total, i);
  return total;
}
"""


#: Manifest items that must fail with a typed error, not deep in the
#: pipeline: (item, text the BatchError must contain).
HOSTILE_JOBS = [
    pytest.param(3, "must be an object", id="int-item"),
    pytest.param("x", "must be an object", id="str-item"),
    pytest.param({"workload": "pca", "opt_level": "3"}, "'opt_level'",
                 id="opt-level-str"),
    pytest.param({"workload": "pca", "opt_level": True}, "'opt_level'",
                 id="opt-level-bool"),
    pytest.param({"workload": "pca", "opt_level": 1}, "'opt_level'",
                 id="opt-level-1"),
    pytest.param({"workload": "pca", "seed": "7"}, "'seed'", id="seed-str"),
    pytest.param({"workload": "pca", "seed": False}, "'seed'",
                 id="seed-bool"),
    pytest.param({"workload": "pca", "fence_opt": 1}, "'fence_opt'",
                 id="fence-opt-int"),
    pytest.param({"workload": "pca", "with_callbacks": "yes"},
                 "'with_callbacks'", id="with-callbacks-str"),
    pytest.param({"workload": 5}, "'workload'", id="workload-int"),
    pytest.param({"binary": ["a.vxe"]}, "'binary'", id="binary-list"),
    pytest.param({"workload": "pca", "size": 1}, "'size'", id="size-int"),
    pytest.param({"workload": "pca", "profile": {}}, "'profile'",
                 id="profile-dict"),
    pytest.param({"binary": "a.vxe", "output": 1}, "'output'",
                 id="output-int"),
]


@pytest.fixture(scope="module")
def tiny_binaries(tmp_path_factory):
    """Three small .vxe files compiled at different opt levels."""
    root = tmp_path_factory.mktemp("bins")
    paths = []
    for opt in (0, 2, 3):
        image = compile_minic(SOURCE, opt_level=opt)
        path = str(root / f"tiny_o{opt}.vxe")
        image.save(path)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Job descriptions


class TestRecompileJob:

    def test_name(self):
        assert RecompileJob(workload="histogram", opt_level=0).name == \
            "histogram/O0"
        assert RecompileJob(workload="kmeans", opt_level=3,
                            fence_opt=True).name == "kmeans/O3+fo"
        assert RecompileJob(binary="/x/y/prog.vxe").name == "prog.vxe"

    def test_validate_rejects_neither_and_both(self):
        with pytest.raises(BatchError):
            RecompileJob().validate()
        with pytest.raises(BatchError):
            RecompileJob(workload="a", binary="b").validate()

    def test_dict_roundtrip(self):
        job = RecompileJob(workload="pca", opt_level=3, fence_opt=True,
                           seed=7)
        again = RecompileJob.from_dict(job.as_dict())
        assert again == job

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(BatchError, match="unknown job fields"):
            RecompileJob.from_dict({"workload": "pca", "optlvl": 3})

    @pytest.mark.parametrize("item, match", HOSTILE_JOBS)
    def test_from_dict_rejects_hostile_jobs(self, item, match):
        with pytest.raises(BatchError, match=match):
            RecompileJob.from_dict(item)

    def test_load_manifest(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"jobs": [
            {"workload": "histogram", "opt_level": 0},
            {"workload": "kmeans", "opt_level": 3, "fence_opt": True},
        ]}))
        jobs = load_manifest(str(path))
        assert [j.name for j in jobs] == ["histogram/O0", "kmeans/O3+fo"]
        # Bare-list form.
        path.write_text(json.dumps([{"workload": "pca"}]))
        assert load_manifest(str(path))[0].workload == "pca"

    @pytest.mark.parametrize("item, match", HOSTILE_JOBS)
    def test_load_manifest_rejects_hostile_jobs(self, tmp_path, item,
                                                match):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"jobs": [{"workload": "pca"}, item]}))
        with pytest.raises(BatchError, match=f"job 1: .*{match}"):
            load_manifest(str(path))

    @pytest.mark.parametrize("text", ["{not json", "{}", "7"])
    def test_load_manifest_rejects_malformed_files(self, tmp_path, text):
        path = tmp_path / "jobs.json"
        path.write_text(text)
        with pytest.raises(BatchError, match="jobs.json"):
            load_manifest(str(path))

    def test_load_manifest_rejects_missing_file(self, tmp_path):
        with pytest.raises(BatchError, match="cannot read manifest"):
            load_manifest(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize("items", [
        [3, "x"],
        [{"workload": "histogram", "opt_level": "3"}],
        [{"workload": "histogram", "opt_level": True}],
    ], ids=["non-object", "opt-level-str", "opt-level-bool"])
    def test_cli_batch_rejects_hostile_manifest(self, tmp_path, capsys,
                                                items):
        from repro.cli import main
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(items))
        assert main(["batch", str(path), "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("batch: ") and err.count("\n") == 1, err

    def test_jobs_for_group(self):
        jobs = jobs_for_group("phoenix", opt_levels=[0])
        assert len(jobs) == 7
        assert all(j.opt_level == 0 for j in jobs)
        subset = jobs_for_group("phoenix", names=["histogram"],
                                opt_levels=[0, 3])
        assert [j.name for j in subset] == ["histogram/O0", "histogram/O3"]
        with pytest.raises(BatchError):
            jobs_for_group("no-such-suite")


# ---------------------------------------------------------------------------
# Execution + cache wiring (static pipeline: fast)


class TestExecuteJob:

    def test_cold_then_warm(self, tiny_binaries, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        job = RecompileJob(binary=tiny_binaries[0])
        cold = execute_job(job, 0, cache=cache)
        assert cold.ok and not cold.cached
        assert cold.pipeline_span_names()          # stages actually ran
        warm = execute_job(job, 0, cache=cache)
        assert warm.ok and warm.cached
        assert warm.pipeline_span_names() == []    # pure hit: no stages
        assert warm.image_sha256 == cold.image_sha256
        assert warm.digest == cold.digest

    def test_verify_on_hit(self, tiny_binaries, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        job = RecompileJob(binary=tiny_binaries[0])
        execute_job(job, 0, cache=cache)
        verified = execute_job(job, 0, cache=cache, verify=True)
        assert verified.ok and verified.cached and verified.verified

    def test_verify_catches_forged_entry(self, tiny_binaries, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        job = RecompileJob(binary=tiny_binaries[0])
        cold = execute_job(job, 0, cache=cache)
        # Forge the entry: valid format, wrong payload.
        other = open(tiny_binaries[1], "rb").read()
        cache.put(cold.digest, other)
        result = execute_job(job, 0, cache=cache, verify=True)
        assert not result.ok
        assert "differs" in result.error

    def test_output_file_written(self, tiny_binaries, tmp_path):
        out = str(tmp_path / "out.vxe")
        job = RecompileJob(binary=tiny_binaries[0], output=out)
        result = execute_job(job, 0, cache=None)
        assert result.ok and os.path.getsize(out) == result.image_size

    def test_error_reported_not_raised(self, tmp_path):
        job = RecompileJob(binary=str(tmp_path / "missing.vxe"))
        result = execute_job(job, 0, cache=None)
        assert not result.ok
        assert "missing.vxe" in result.error


class TestRunBatch:

    def test_inprocess_ordering(self, tiny_binaries, tmp_path):
        jobs = [RecompileJob(binary=p) for p in reversed(tiny_binaries)]
        batch = run_batch(jobs, jobs_n=1,
                          cache=ArtifactCache(str(tmp_path / "c")))
        assert batch.ok and batch.executor == "inline"
        assert [r.index for r in batch.results] == [0, 1, 2]
        assert [r.name for r in batch.results] == \
            [j.name for j in jobs]

    def test_process_pool_matches_inline(self, tiny_binaries, tmp_path):
        jobs = [RecompileJob(binary=p) for p in tiny_binaries]
        pooled = run_batch(jobs, jobs_n=2,
                           cache=ArtifactCache(str(tmp_path / "pool")))
        inline = run_batch(jobs, jobs_n=1,
                           cache=ArtifactCache(str(tmp_path / "inline")))
        assert pooled.ok and pooled.executor == "process"
        assert [r.image_sha256 for r in pooled.results] == \
            [r.image_sha256 for r in inline.results]

    def test_inprocess_env_forces_inline(self, tiny_binaries, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("POLYNIMA_BATCH_INPROCESS", "1")
        jobs = [RecompileJob(binary=p) for p in tiny_binaries]
        batch = run_batch(jobs, jobs_n=4, cache=None)
        assert batch.ok and batch.executor == "inline"

    def test_warm_batch_full_hit_rate(self, tiny_binaries, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        jobs = [RecompileJob(binary=p) for p in tiny_binaries]
        cold = run_batch(jobs, jobs_n=1, cache=cache)
        warm = run_batch(jobs, jobs_n=1, cache=cache)
        assert cold.hit_rate == 0.0 and warm.hit_rate == 1.0
        assert warm.pipeline_stage_spans() == 0
        assert cache.counters.get("cache.hits") == len(jobs)

    def test_merged_trace_valid(self, tiny_binaries, tmp_path):
        from repro.observability import Tracer
        jobs = [RecompileJob(binary=p) for p in tiny_binaries]
        batch = run_batch(jobs, jobs_n=1, cache=None)
        trace = batch.trace()
        Tracer.validate_chrome_trace(trace)
        # One thread lane per job.
        tids = {ev["tid"] for ev in trace["traceEvents"]}
        assert len(tids) == len(jobs)

    def test_summary_shapes(self, tiny_binaries):
        jobs = [RecompileJob(binary=tiny_binaries[0])]
        batch = run_batch(jobs, jobs_n=1, cache=None)
        text = batch.format_summary()
        assert "tiny_o0.vxe" in text
        data = batch.as_dict()
        assert data["jobs"][0]["name"] == "tiny_o0.vxe"

    def test_bad_job_does_not_sink_batch(self, tiny_binaries):
        jobs = [RecompileJob(binary=tiny_binaries[0]),
                RecompileJob(binary="/nope/nothing.vxe")]
        batch = run_batch(jobs, jobs_n=1, cache=None)
        assert not batch.ok
        assert batch.results[0].ok and not batch.results[1].ok

    def test_mixed_manifest_isolates_failures(self, tiny_binaries,
                                              tmp_path):
        """A manifest mixing healthy jobs, an unreadable binary and a
        structurally invalid job still completes every runnable job;
        the bad ones surface as per-job error results in order."""
        jobs = [
            RecompileJob(binary=tiny_binaries[0]),
            RecompileJob(),                         # invalid: neither set
            RecompileJob(binary="/nope/nothing.vxe"),   # unreadable
            RecompileJob(workload="histogram",
                         binary=tiny_binaries[1]),  # invalid: both set
            RecompileJob(binary=tiny_binaries[2]),
        ]
        batch = run_batch(jobs, jobs_n=1,
                          cache=ArtifactCache(str(tmp_path / "c")))
        assert not batch.ok
        assert [r.index for r in batch.results] == [0, 1, 2, 3, 4]
        assert batch.results[0].ok and batch.results[4].ok
        assert "exactly one" in batch.results[1].error
        assert "nothing.vxe" in batch.results[2].error
        assert "exactly one" in batch.results[3].error
        # The healthy jobs really ran (and were cached).
        assert batch.results[0].digest and batch.results[4].digest

    def test_mixed_manifest_through_process_pool(self, tiny_binaries,
                                                 tmp_path):
        """Same isolation holds when the batch fans out to worker
        processes: a failing job must not poison the pool map."""
        jobs = [
            RecompileJob(binary=tiny_binaries[0]),
            RecompileJob(binary="/nope/nothing.vxe"),
            RecompileJob(binary=tiny_binaries[1]),
        ]
        batch = run_batch(jobs, jobs_n=2,
                          cache=ArtifactCache(str(tmp_path / "c")))
        assert batch.executor == "process"
        assert [r.ok for r in batch.results] == [True, False, True]

    @pytest.mark.parametrize("jobs_n", [1, 2])
    def test_failed_before_lookup_not_counted(self, tiny_binaries,
                                              tmp_path, jobs_n):
        """Only jobs that reached the cache count as hits or misses: an
        unknown workload, an unloadable profile or binary never looked
        anything up."""
        cache = ArtifactCache(str(tmp_path / "c"))
        jobs = [RecompileJob(workload="no-such-workload"),
                RecompileJob(workload="histogram",
                             profile=str(tmp_path / "missing.json")),
                RecompileJob(binary="/nope/nothing.vxe"),
                RecompileJob(binary=tiny_binaries[0])]
        batch = run_batch(jobs, jobs_n=jobs_n, cache=cache)
        assert [r.ok for r in batch.results] == [False, False, False, True]
        assert cache.counters.get("cache.misses") == 1
        assert cache.counters.get("cache.hits") == 0

    def test_execute_job_captures_validation_error(self):
        result = execute_job(RecompileJob(), 3)
        assert not result.ok and "exactly one" in result.error
        assert result.index == 3


# ---------------------------------------------------------------------------
# Hybrid-path integration (one real workload; seconds, not minutes)


class TestHybridIntegration:

    def test_hybrid_cold_warm_identical(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        job = RecompileJob(workload="histogram", opt_level=0)
        cold = execute_job(job, 0, cache=cache)
        assert cold.ok and not cold.cached, cold.error
        assert any(n.startswith("recompile.")
                   for n in cold.pipeline_span_names())
        warm = execute_job(job, 0, cache=cache)
        assert warm.ok and warm.cached
        assert warm.pipeline_span_names() == []
        assert warm.image_sha256 == cold.image_sha256
        # Stats survive the cache roundtrip.
        assert warm.stats.get("blocks_recovered") == \
            cold.stats.get("blocks_recovered")

    @pytest.mark.parametrize("fence_opt, builds", [(False, 1), (True, 2)])
    def test_trace_run_serves_the_callback_analysis(self, monkeypatch,
                                                    fence_opt, builds):
        """A plain job makes one build and one emulation (the ICFT trace
        run, which also yields the callback set); fence optimisation
        adds its instrumented build and run."""
        from repro.core import Recompiler, callbacks, hybrid_recompile
        from repro.emulator import Machine
        from repro.workloads import get
        counts = {"builds": 0, "runs": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Recompiler, "recompile",
                            counting("builds", Recompiler.recompile))
        monkeypatch.setattr(Machine, "run", counting("runs", Machine.run))
        monkeypatch.setattr(callbacks, "discover_callbacks", None)
        result, report = hybrid_recompile(get("word_count"), 0, size="small",
                                          fence_opt=fence_opt)
        assert counts == {"builds": builds, "runs": builds}
        assert (report is not None) == fence_opt
        assert result.image
