"""What the ladder's in-process self-check guards, minus its stale line.

``benchmarks/ladder/test_ladder.py::
test_inproc_run_reads_zero_on_every_pool_metric`` ends in
``cuts.fresh_cuts_calls > 0``.  Closure waves emptied that layer on
every in-process run, the directory is closed to a gain-claiming change
(``BENCHMARK.json`` ``paths``), so ``benchmarks/conftest.py`` marks the
check a strict xfail — which would also hide a pool metric turning
non-zero.  Same circuit, same seed, same asserts, here, until the
benchmark-only PR (ROADMAP item 1) relaxes the line and deletes
both.
"""

import sys
import time
from pathlib import Path

import pytest

from repro.bench.generators import mtm_like

LADDER = Path(__file__).resolve().parent.parent / "benchmarks" / "ladder"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(LADDER))
    try:
        import child
        from circuits import Workload, inproc_config

        tiny = Workload("tiny_inproc", "test only",
                        lambda: mtm_like(16, 1500, seed=11), inproc_config)
        record, _aig = child.run_once(tiny, 3, True, 2, time.time())
    finally:
        sys.path.remove(str(LADDER))
    assert record["failures"] == [] and record["untraced"] == []
    return record["layers"]


def test_inproc_run_reads_zero_on_every_pool_metric(layers):
    for name in ("procpool.run_enum_s", "procpool.run_eval_s",
                 "procpool.run_shards_s", "procpool.chunk_retries",
                 "procpool.pool_restarts", "procpool.chunk_fallbacks",
                 "procpool.quarantined", "procpool.bytes_shipped",
                 "snapshot.capture_s", "shards.splice_s"):
        assert layers[name] == 0, name
    assert layers["cuts.merge_kernel_s"] > 0


def test_enum_stage_never_reaches_the_scalar_resolve(layers):
    # The span still resolves (0, not None): it is simply not reached.
    assert layers["cuts.fresh_cuts_calls"] == 0
    assert layers["cuts.fresh_cuts_s"] == 0
