"""Shared fixtures."""

import os

import pytest

import moritalab


@pytest.fixture
def child_env():
    """Environment for a child Python process that must import the
    moritalab under test: pytest's pythonpath setting reaches only this
    process, so the package's source directory goes first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(moritalab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
