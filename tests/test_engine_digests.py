"""Golden engine digests: short runs keep their result bytes at one ENGINE_VERSION.

A change that moves a result bit must bump ``ENGINE_VERSION``, so stored
runs are recomputed instead of reused, and re-record the table with
``PYTHONPATH=src python tests/record_engine_digests.py``. The digests
are compared only on a machine whose numerics fingerprint is in the table.
"""

import pytest

from record_engine_digests import load_table, numerics_fingerprint, run_digests
from randomout.experiments import ENGINE_VERSION

TABLE = load_table()
RERECORD = "re-record the table with `PYTHONPATH=src python tests/record_engine_digests.py`"


def test_engine_version_is_the_one_the_table_was_recorded_at():
    assert TABLE["engine_version"] == ENGINE_VERSION, (
        f"ENGINE_VERSION is {ENGINE_VERSION} but the digests were recorded at {TABLE['engine_version']}: {RERECORD}"
    )


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    fingerprint = numerics_fingerprint()
    if fingerprint not in TABLE["fingerprints"]:
        pytest.skip(f"numerics fingerprint {fingerprint} has no recorded digests: {RERECORD}")
    return TABLE["fingerprints"][fingerprint], run_digests(tmp_path_factory.mktemp("digests"))


@pytest.mark.parametrize("run", sorted(next(iter(TABLE["fingerprints"].values()))))
def test_run_bytes_match_the_recorded_digests(digests, run):
    recorded, now = digests
    assert now[run] == recorded[run], (
        f"{run}'s result bytes differ from those recorded at ENGINE_VERSION {TABLE['engine_version']} "
        f"(now {ENGINE_VERSION}): a change that moves result bits bumps ENGINE_VERSION and must {RERECORD}"
    )
