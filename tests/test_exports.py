"""The public names of the exact engine."""

from __future__ import annotations

import singosc.opalg


def test_every_exported_name_imports():
    # a star import raises on any name of __all__ the package no longer has
    namespace: dict = {}
    exec("from singosc.opalg import *", namespace)
    assert set(singosc.opalg.__all__) <= set(namespace)
