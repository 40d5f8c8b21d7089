"""Shared fixtures.

The 2e6 acceptance table takes a few seconds to sieve, so it is built once
per machine and cached on disk (LIOUMEL_TEST_CACHE_DIR overrides the
location).  The small tables are rebuilt per session; they are cheap.
"""

import os
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for `oracles`

from liouville_mellin import build_table
from liouville_mellin.cli import acquire_table

ACCEPTANCE_LIMIT = 2_000_001


def _cache_dir() -> Path:
    return Path(os.environ.get("LIOUMEL_TEST_CACHE_DIR",
                               os.path.join(tempfile.gettempdir(), "liouville_mellin_tests")))


@pytest.fixture(scope="session")
def table_small():
    return build_table(3001)


@pytest.fixture(scope="session")
def table_100k():
    return build_table(100_001)


@pytest.fixture(scope="session")
def table_main():
    # the CLI's cache policy: reuse arith_2000001.bin, rebuild it if unusable
    return acquire_table(ACCEPTANCE_LIMIT, _cache_dir())
