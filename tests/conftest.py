import pytest

from yvpoly import family


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
