"""Import the bglab of this checkout, never an installed copy."""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class Refused(Exception):
    """The benchmark cannot run here; it exits with status 2."""


def import_bglab():
    """Put the checkout's `src` first on sys.path and import bglab from it."""
    package = os.path.join(SRC, "bglab")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise Refused(f"no bglab sources at {package}")
    sys.path.insert(0, SRC)
    import bglab

    if os.path.dirname(os.path.abspath(bglab.__file__)) != package:
        raise Refused(f"bglab imported from {bglab.__file__}, not {package}")
    return bglab
