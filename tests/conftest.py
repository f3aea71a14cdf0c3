"""Fixtures shared by the test modules."""

import sys

import pytest


def clear_caches():
    """Empty every functools cache of every dyckgen module, so that a
    cache added anywhere in the package needs no edit here."""
    for name, module in list(sys.modules.items()):
        if name.startswith("dyckgen."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def cold_caches():
    """Every builder cache empty before the test, so that no clean
    cached value hides a fault, and after it, so that no faulty one
    outlives it."""
    clear_caches()
    yield
    clear_caches()
