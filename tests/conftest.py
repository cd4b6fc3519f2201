"""Import the package before any test module imports numpy, so that the
suite runs with the one BLAS thread the package pins (see
``qkattn/__init__.py``), as the ``qkattn`` command does."""
import sys
import warnings

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before qkattn; BLAS threads are not pinned")

import qkattn  # noqa: E402,F401
