import sys
from pathlib import Path

import pytest

# Allow running pytest straight from a checkout without installing.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ramavg.averages as averages  # noqa: E402
import ramavg.multivar as multivar  # noqa: E402

# What a run shares between its cases, the per-tuple tables shared
# between identities and the memoized random test functions: a value left
# here by one test would bypass a fault that a later test patches into the
# code that builds it.
RUN_CACHES = (
    averages._gcd_class_totals,
    averages._dft_values,
    averages.random_function,
    multivar._product_row,
    multivar._divisor_terms,
    multivar._power_sum_table,
    multivar._weight_table,
)


def _clear():
    for cache in RUN_CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def fresh_run_caches():
    """Every test starts with the run caches and tuple tables empty."""
    _clear()


@pytest.fixture
def clear_run_caches():
    """For a test that must empty the caches again part way through."""
    return _clear
