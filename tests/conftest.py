"""Import the package before any test module imports numpy, so that the
suite runs with the one BLAS thread the package pins (see
``qkattn/__init__.py``), as the ``qkattn`` command does."""
import sys
import warnings

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before qkattn; BLAS threads are not pinned")

import qkattn  # noqa: E402,F401
import pytest  # noqa: E402
from qkattn import model, sim  # noqa: E402


@pytest.fixture
def clear_caches():
    """A function that empties every ``functools`` cache of ``qkattn.sim``
    and ``qkattn.model``, found by introspection, so that a test that
    calls it measures a cold build however many caches the modules hold;
    it returns the names of the caches it emptied."""
    def clear():
        names = []
        for module in (sim, model):
            for name, value in vars(module).items():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    value.cache_clear()
                    names.append(f"{module.__name__}.{name}")
        return names
    return clear
