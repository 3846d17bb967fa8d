import os
import random

import pytest

import unitdist as ud


@pytest.fixture(scope="session")
def c52():
    return ud.hamming_graph(5, 2)


@pytest.fixture(scope="session")
def h52():
    return ud.half_cube(5, 2)


@pytest.fixture(scope="session")
def c104():
    return ud.hamming_graph(10, 4)


@pytest.fixture(scope="session")
def slice1045():
    return ud.slice_graph(10, 4, 5)


@pytest.fixture(scope="session")
def g0_pair():
    return ud.build_g0()


def random_graph(rng: random.Random, n: int, p: float, name: str = "") -> ud.Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return ud.Graph.from_edges(n, edges, name=name)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        leftover = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process: waitpid gave {leftover}")
