from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import normlab
from normlab.catalog import build, parse_spec
from normlab.group import Group
from normlab.limits import get_limits, set_limits
from normlab.perm import perm_from_cycles


@pytest.fixture(autouse=True)
def _restore_limits():
    saved = get_limits()
    yield
    set_limits(saved)


@pytest.fixture
def subprocess_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this normlab, also
    when the tests found it through pytest's pythonpath setting only."""
    src = str(Path(normlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def s4() -> Group:
    G, _ = build(parse_spec("S:4"))
    return G


@pytest.fixture
def s3() -> Group:
    G, _ = build(parse_spec("S:3"))
    return G


@pytest.fixture
def a4() -> Group:
    G, _ = build(parse_spec("A:4"))
    return G


@pytest.fixture
def a5() -> Group:
    G, _ = build(parse_spec("A:5"))
    return G


@pytest.fixture
def d4() -> Group:
    G, _ = build(parse_spec("D:4"))
    return G


@pytest.fixture
def q8() -> Group:
    i = perm_from_cycles(8, [[1, 2, 3, 4], [5, 8, 7, 6]])
    j = perm_from_cycles(8, [[1, 5, 3, 7], [2, 6, 4, 8]])
    return Group(8, (i, j))


@pytest.fixture
def psl2_17() -> Group:
    G, _ = build(parse_spec("PSL2:17"))
    return G
