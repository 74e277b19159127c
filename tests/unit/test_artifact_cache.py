"""Unit tests for the content-addressed artifact cache.

The cache premise is that the recompilation pipeline is a pure function
of (image bytes, pipeline options, pipeline version): the key tests
here pin down digest *stability* (same inputs hash identically, even
across interpreter processes with different hash randomisation) and
digest *sensitivity* (every input that can change the output artifact
must change the key).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core import (ARTIFACT_FORMAT, PIPELINE_VERSION, ArtifactCache,
                        CacheError, stable_digest)
from repro.observability import Counters


IMAGE = b"\x7fVXE-fake-image-bytes\x00\x01\x02"
OPTIONS = {"kind": "hybrid", "workload": "histogram", "opt_level": 0,
           "seed": 21, "fence_opt": False, "callbacks": True}


# ---------------------------------------------------------------------------
# Digest stability


class TestStableDigest:

    def test_deterministic_within_process(self):
        assert stable_digest(IMAGE, **OPTIONS) == \
            stable_digest(IMAGE, **OPTIONS)

    def test_kwarg_order_irrelevant(self):
        forward = stable_digest(IMAGE, a=1, b=2, c=3)
        backward = stable_digest(IMAGE, c=3, b=2, a=1)
        assert forward == backward

    def test_stable_across_processes(self):
        """The digest must not depend on interpreter hash randomisation
        (PYTHONHASHSEED), or a cache warmed by one process would be
        cold for every other."""
        program = (
            "from repro.core import stable_digest\n"
            f"print(stable_digest({IMAGE!r}, kind='hybrid', opt_level=0,"
            f" seed=21, tags={{'b', 'a', 'c'}}))\n"
        )
        digests = set()
        for seed in ("0", "1", "1234"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run(
                [sys.executable, "-c", program], env=env,
                capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1, digests

    def test_sets_are_canonicalised(self):
        a = stable_digest(IMAGE, tags={"x", "y", "z"})
        b = stable_digest(IMAGE, tags={"z", "y", "x"})
        assert a == b

    def test_bytes_options_hashed(self):
        assert stable_digest(IMAGE, blob=b"abc") == \
            stable_digest(IMAGE, blob=b"abc")
        assert stable_digest(IMAGE, blob=b"abc") != \
            stable_digest(IMAGE, blob=b"abd")

    def test_unserialisable_option_rejected(self):
        with pytest.raises(TypeError):
            stable_digest(IMAGE, bad=object())

    # -- sensitivity: every knob that changes output must change the key

    def test_image_bytes_change_key(self):
        assert stable_digest(IMAGE, **OPTIONS) != \
            stable_digest(IMAGE + b"\x00", **OPTIONS)

    def test_opt_level_changes_key(self):
        changed = dict(OPTIONS, opt_level=3)
        assert stable_digest(IMAGE, **OPTIONS) != \
            stable_digest(IMAGE, **changed)

    def test_fence_mode_changes_key(self):
        changed = dict(OPTIONS, fence_opt=True)
        assert stable_digest(IMAGE, **OPTIONS) != \
            stable_digest(IMAGE, **changed)

    def test_callback_mode_changes_key(self):
        changed = dict(OPTIONS, callbacks=False)
        assert stable_digest(IMAGE, **OPTIONS) != \
            stable_digest(IMAGE, **changed)

    def test_version_stamp_changes_key(self):
        """Bumping PIPELINE_VERSION must invalidate every existing
        entry (the artifact format itself may have changed)."""
        assert stable_digest(IMAGE, version=PIPELINE_VERSION, **OPTIONS) != \
            stable_digest(IMAGE, version="polynima-pipeline-v0", **OPTIONS)


# ---------------------------------------------------------------------------
# Store behaviour


class TestArtifactCache:

    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        digest = cache.digest(IMAGE, **OPTIONS)
        assert cache.get(digest) is None            # cold
        cache.put(digest, IMAGE, meta={"options": OPTIONS})
        hit = cache.get(digest)
        assert hit is not None
        assert hit.image_bytes == IMAGE
        assert hit.meta["options"]["workload"] == "histogram"
        assert digest in cache and len(cache) == 1

    def test_counters(self, tmp_path):
        counters = Counters()
        cache = ArtifactCache(str(tmp_path), counters=counters)
        digest = cache.digest(IMAGE)
        cache.get(digest)
        cache.put(digest, IMAGE)
        cache.get(digest)
        assert counters.get("cache.misses") == 1
        assert counters.get("cache.puts") == 1
        assert counters.get("cache.hits") == 1
        assert cache.stats()["hits"] == 1

    def test_truncated_payload_detected(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        digest = cache.digest(IMAGE)
        path = cache.put(digest, IMAGE)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-3])            # chop the payload
        assert cache.get(digest) is None            # detected, not served
        assert not os.path.exists(path)             # and deleted
        assert cache.counters.get("cache.corrupt") == 1
        cache.put(digest, IMAGE)                    # recompile path: re-put
        assert cache.get(digest).image_bytes == IMAGE

    def test_garbage_header_detected(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        digest = cache.digest(IMAGE)
        path = cache.put(digest, IMAGE)
        open(path, "wb").write(b"not json\n" + IMAGE)
        assert cache.get(digest) is None
        assert cache.counters.get("cache.corrupt") == 1

    def test_wrong_format_stamp_detected(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        digest = cache.digest(IMAGE)
        path = cache.put(digest, IMAGE)
        raw = open(path, "rb").read()
        header = json.loads(raw.split(b"\n", 1)[0])
        assert header["format"] == ARTIFACT_FORMAT
        header["format"] = "someone-elses-format"
        open(path, "wb").write(
            json.dumps(header).encode() + b"\n" + raw.split(b"\n", 1)[1])
        assert cache.get(digest) is None

    def test_eviction_over_max_entries(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_entries=3)
        digests = []
        for i in range(5):
            digest = cache.digest(IMAGE, index=i)
            cache.put(digest, IMAGE + bytes([i]))
            digests.append(digest)
        assert len(cache) == 3
        assert cache.counters.get("cache.evictions") == 2
        # Newest entries survive.
        assert cache.get(digests[-1]) is not None

    def test_clear(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        for i in range(3):
            cache.put(cache.digest(IMAGE, index=i), IMAGE)
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_unusable_root_raises_cache_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = ArtifactCache(str(blocker / "sub"))
        with pytest.raises(CacheError):
            cache.put(cache.digest(IMAGE), IMAGE)

    def test_versioned_caches_do_not_share_entries(self, tmp_path):
        old = ArtifactCache(str(tmp_path), version="v-old")
        new = ArtifactCache(str(tmp_path), version="v-new")
        old.put(old.digest(IMAGE), IMAGE)
        assert new.get(new.digest(IMAGE)) is None


# ---------------------------------------------------------------------------
# Concurrent publication (parallel batch workers, and any threads or
# processes sharing one cache directory, lean on os.replace atomicity:
# N writers of one digest must all succeed, and a reader must never
# observe a torn entry)


def _publisher(root, digest, payload, rounds, barrier):
    """Child-process body: hammer put() on one digest."""
    cache = ArtifactCache(root)
    barrier.wait()                  # maximise overlap between writers
    for _ in range(rounds):
        cache.put(digest, payload, meta={"who": os.getpid()})


class TestConcurrentPublish:

    ROUNDS = 40

    def test_two_processes_publish_same_digest(self, tmp_path):
        """Two processes racing to publish the same digest must both
        succeed via the temp-file + os.replace path, and the surviving
        entry must be complete and verifiable."""
        import multiprocessing
        ctx = multiprocessing.get_context()
        root = str(tmp_path / "cache")
        payload = IMAGE * 64
        digest = ArtifactCache(root).digest(payload, **OPTIONS)
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_publisher,
                             args=(root, digest, payload,
                                   self.ROUNDS, barrier))
                 for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs), \
            [p.exitcode for p in procs]
        reader = ArtifactCache(root)
        hit = reader.get(digest)
        assert hit is not None and hit.image_bytes == payload
        assert reader.counters.get("cache.corrupt") == 0
        # Exactly one entry survives; no stray temp files leak.
        assert len(reader) == 1
        leftovers = [name for _dir, _subs, names in os.walk(root)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_reader_never_observes_torn_entry(self, tmp_path):
        """A reader polling get() while writer threads republish the
        digest sees either a miss or the full payload — never a
        partial write, never a corrupt-entry deletion."""
        import threading
        root = str(tmp_path / "cache")
        payload = IMAGE * 256
        writer_cache = ArtifactCache(root)
        digest = writer_cache.digest(payload, **OPTIONS)
        # Publish once up front: the reader's polls could otherwise all
        # finish before any writer thread's first rename lands.
        writer_cache.put(digest, payload)
        stop = threading.Event()

        def write_loop():
            while not stop.is_set():
                writer_cache.put(digest, payload)

        writers = [threading.Thread(target=write_loop) for _ in range(3)]
        for t in writers:
            t.start()
        reader = ArtifactCache(root, counters=Counters())
        seen_hit = False
        try:
            for _ in range(300):
                hit = reader.get(digest)
                if hit is not None:
                    seen_hit = True
                    assert hit.image_bytes == payload
        finally:
            stop.set()
            for t in writers:
                t.join()
        assert seen_hit
        assert reader.counters.get("cache.corrupt") == 0
