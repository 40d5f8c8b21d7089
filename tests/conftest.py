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

from liouville_mellin import CacheFormatError, build_table, load_table, save_table

ACCEPTANCE_LIMIT = 2_000_001


def _cache_dir() -> Path:
    base = os.environ.get("LIOUMEL_TEST_CACHE_DIR",
                          os.path.join(tempfile.gettempdir(), "liouville_mellin_tests"))
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


@pytest.fixture(scope="session")
def table_small():
    return build_table(3001)


@pytest.fixture(scope="session")
def table_100k():
    return build_table(100_001)


@pytest.fixture(scope="session")
def table_main():
    path = _cache_dir() / f"arith_{ACCEPTANCE_LIMIT}.bin"
    if path.exists():
        try:
            return load_table(path)
        except CacheFormatError:  # stale layout or corrupt file: rebuild
            path.unlink()
    table = build_table(ACCEPTANCE_LIMIT)
    save_table(table, path)
    return table
