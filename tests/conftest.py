import gc

import pytest

from yvpoly import family, relations


def table_keys():
    """The keys of relations.TABLES once unreachable sources are collected.
    A test compares this set before and after a run: a failed earlier test
    can keep sources alive until then, so their entries may go meanwhile,
    and only keys the run added tell what it left behind."""
    gc.collect()
    return set(relations.TABLES._entries)


def replaced(obj, **changes):
    """A new instance of obj's class with obj's fields, changes applied:
    the records are read-only, so a test builds a corrupted copy."""
    return type(obj)(**{**vars(obj), **changes})


@pytest.fixture(scope="session")
def records16():
    return family.generate(16)


@pytest.fixture(scope="session")
def records8(records16):
    return records16[:9]


@pytest.fixture(scope="session")
def rootsets12(records16):
    from yvpoly import roots
    return {n: roots.roots_for_record(records16[n]) for n in range(13)}


@pytest.fixture(scope="session")
def rootsets8(rootsets12):
    return {n: rootsets12[n] for n in range(9)}
