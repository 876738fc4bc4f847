"""Suite-wide set-up: child ``python -m padiclab`` processes import ``src/``.

``pythonpath = ["src"]`` in pyproject.toml puts the checkout on this
process's ``sys.path``; the CLI tests also spawn fresh interpreters, which
read only ``PYTHONPATH``, so a checkout runs the suite without an install.
"""

from __future__ import annotations

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, os.environ.get("PYTHONPATH")) if path
    )
