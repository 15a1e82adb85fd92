import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from treesym import Tree, all_trees, kary_tree, relabel, spider, tree_from_pruefer
from treesym import trees as trees_module

ROOT = Path(__file__).resolve().parent.parent


def subprocess_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH, for child interpreters that import treesym."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))


@pytest.fixture
def table_builds(monkeypatch) -> list[int]:
    """The root of every rooting whose tables are built while the test runs."""
    built: list[int] = []
    build = trees_module._rooting
    monkeypatch.setattr(trees_module, "_rooting", lambda t, w: built.append(w) or build(t, w))
    return built


# named fixtures for the small trees every module's examples use


@pytest.fixture
def k1():
    return Tree.from_edges(1, [])


@pytest.fixture
def k2():
    return Tree.from_edges(2, [(0, 1)])


@pytest.fixture
def p3():
    # center at 0
    return Tree.from_edges(3, [(0, 1), (0, 2)])


@pytest.fixture
def p3_path():
    # path labeling 0-1-2, center at 1
    return Tree.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def p4():
    return Tree.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def p6():
    return Tree.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])


@pytest.fixture
def k13():
    return Tree.from_edges(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def k14():
    return Tree.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.fixture
def asym7():
    # the smallest asymmetric tree
    return Tree.from_edges(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)])


def path(n: int) -> Tree:
    return Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Tree:
    return Tree.from_edges(n, [(0, i) for i in range(1, n)])


def relabeled_families(seed: int, sizes) -> list[Tree]:
    """A path, star, 3-leg spider, binary tree and Prüfer tree of each size (at least 4), randomly relabeled."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        pruefer = tree_from_pruefer(n, [rng.randrange(n) for _ in range(n - 2)])
        for t in (path(n), star(n), spider(n, 3), kary_tree(n, 2), pruefer):
            perm = list(range(n))
            rng.shuffle(perm)
            out.append(relabel(t, perm))
    return out


def sample_roots(t: Tree, rng: random.Random) -> set[int]:
    """Both end ids, a vertex of maximum degree and one random vertex."""
    return {0, t.n - 1, max(range(t.n), key=t.degree), rng.randrange(t.n)}


_CORPUS_CACHE: dict[int, list[Tree]] = {}


def trees_up_to(max_n: int) -> list[Tree]:
    out = []
    for n in range(1, max_n + 1):
        if n not in _CORPUS_CACHE:
            _CORPUS_CACHE[n] = list(all_trees(n))
        out.extend(_CORPUS_CACHE[n])
    return out


def branch_runs(sig: tuple[tuple[int, int], ...], add: int = -1, drop: int = -1) -> tuple[tuple[int, int], ...]:
    """The run table ``sig`` with one more branch of class ``add`` and one fewer of class ``drop`` (-1: none).

    The run-table editor the library used before every table came from ``canon._runs``; the
    reference kernels of ``test_class_kernels`` and ``test_rerooting`` build their tables with it.
    """
    out = []
    for k, mu in sig:
        if 0 <= add < k:
            out.append((add, 1))
        mu += (k == add) - (k == drop)
        if add <= k:
            add = -1
        if mu:
            out.append((k, mu))
    if add >= 0:
        out.append((add, 1))
    return tuple(out)


@st.composite
def random_trees(draw, min_n: int = 1, max_n: int = 10):
    n = draw(st.integers(min_n, max_n))
    if n <= 2:
        return path(n)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return tree_from_pruefer(n, seq)


@st.composite
def trees_with_permutation(draw, min_n: int = 1, max_n: int = 10):
    t = draw(random_trees(min_n, max_n))
    perm = draw(st.permutations(list(range(t.n))))
    return t, list(perm)
