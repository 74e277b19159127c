"""Golden image digests: a refactor must leave recompiled bytes unchanged.

``output_digests.json`` pins the sha256 of a small fixed set of
recompiled images: two static O3 builds per Table 4 group (traced as
the benchmark traces them) plus three plain hybrids (word_count at O3
enters a pthread start routine and a qsort comparator from the library)
and two hybrids with fence optimisation (pca keeps its fences,
word_count at O0 has them removed).  A change that is meant to alter
the pipeline's output regenerates the file and bumps
``PIPELINE_VERSION`` (so stale artifact-cache entries are
invalidated)::

    PYTHONPATH=src python tests/integration/test_output_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "output_digests.json")

SIZE = "small"
SEED = 21

#: Two O3 programs from each static group (gapbs, ckit, realworld, spec).
STATIC_CASES = ("bfs", "sssp", "ck_spinlock", "ck_mcs", "lightftp",
                "memcached", "bzip2", "mcf")

#: (workload, opt level, fence optimisation) through ``hybrid_recompile``.
HYBRID_CASES = (("histogram", 0, False), ("kmeans", 3, False),
                ("word_count", 3, False), ("pca", 3, True),
                ("word_count", 0, True))


def _sha256(image) -> str:
    return hashlib.sha256(image.to_bytes()).hexdigest()


def static_digest(name: str) -> str:
    from repro.core import ICFTTracer, Recompiler
    from repro.workloads import get
    workload = get(name)
    image = workload.compile(opt_level=3)
    trace = ICFTTracer(image).trace(lambda _x: workload.library(SIZE),
                                    inputs=[None], seed=SEED)
    return _sha256(Recompiler(image).recompile(trace=trace).image)


def hybrid_digest(name: str, opt: int, fence_opt: bool) -> str:
    from repro.core import hybrid_recompile
    from repro.workloads import get
    result, _ = hybrid_recompile(get(name), opt, size=SIZE, seed=SEED,
                                 fence_opt=fence_opt)
    return _sha256(result.image)


def case_ids():
    return ([f"static/{name}/O3" for name in STATIC_CASES]
            + [f"hybrid/{name}/O{opt}/{'fo' if fo else 'plain'}"
               for name, opt, fo in HYBRID_CASES])


def compute(case_id: str) -> str:
    kind, name, opt, *rest = case_id.split("/")
    if kind == "static":
        return static_digest(name)
    return hybrid_digest(name, int(opt[1:]), rest == ["fo"])


def load_digests() -> dict:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def test_digest_file_matches_pipeline_version():
    from repro.core import PIPELINE_VERSION
    recorded = load_digests()
    assert recorded["pipeline_version"] == PIPELINE_VERSION, (
        "PIPELINE_VERSION changed: regenerate the digests with "
        "`python tests/integration/test_output_digests.py --write`")
    assert sorted(recorded["images"]) == sorted(case_ids())


@pytest.mark.parametrize("case_id", case_ids())
def test_recompiled_image_digest(case_id):
    expected = load_digests()["images"][case_id]
    actual = compute(case_id)
    assert actual == expected, (
        f"{case_id}: recompiled image changed ({actual[:12]} != "
        f"{expected[:12]}).  If the change is intended, bump "
        f"PIPELINE_VERSION in repro/core/artifact_cache.py and regenerate "
        f"the digests with "
        f"`python tests/integration/test_output_digests.py --write`.")


def write_digests() -> None:
    from repro.core import PIPELINE_VERSION
    out = {"pipeline_version": PIPELINE_VERSION,
           "images": {case_id: compute(case_id) for case_id in case_ids()}}
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_digests()
