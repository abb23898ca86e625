"""Fixtures shared by every test directory."""

import gc

import pytest


@pytest.fixture
def collector_off():
    """The cyclic collector, switched off for the test and handed over.

    For tests that assert what *reference counts alone* freed: they
    never depend on when a collection runs, so they hold on every
    supported Python.  ``collector_off.collect()`` afterwards counts
    what only the collector could have found.
    """
    gc.collect()
    gc.disable()
    try:
        yield gc
    finally:
        gc.enable()
