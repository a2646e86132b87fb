"""Shared fixtures: keep tests hermetic against the user's real cache.

Any test that exercises the CLI without ``--no-cache`` would otherwise
read and write ``~/.cache/campion``; pointing ``CAMPION_CACHE_DIR`` at
a per-test temporary directory isolates every test run (and tests that
pass an explicit ``--cache-dir`` still win over the environment).

An in-process ``main([...])`` call that loads configs freezes every
object the process tracks out of the cyclic collector; each test
unfreezes afterwards so the suite's garbage stays collectable.
"""

import gc

import pytest


@pytest.fixture(autouse=True)
def _hermetic_cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("CAMPION_CACHE_DIR", str(tmp_path / "campion-cache"))


@pytest.fixture(autouse=True)
def _unfreeze_after_cli():
    yield
    gc.unfreeze()
