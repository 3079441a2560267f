import os
import random
from pathlib import Path

import pytest

import priceofmajority
from priceofmajority import VoterMatrix


@pytest.fixture
def child_env() -> dict:
    """Environment in which a child interpreter imports this package's source."""
    src = str(Path(priceofmajority.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def intro_matrix() -> VoterMatrix:
    """9 voters, 7 topics; every column has a Y-majority of at least 5."""
    return VoterMatrix.from_strings(
        ["YYYYYYY"] * 4 + ["YYYNNNN"] + ["NNNYYNN"] * 2 + ["NNNNNYY"] * 2
    )


def _sparse_draw(t: int, seed: int) -> str:
    """Matrix text of 2t voters over t topics, each opinion Y with probability
    0.15 (random.Random(seed)), and an all-Y block of weight 2t - 1 that leaves
    every column a Y-majority."""
    rng = random.Random(seed)
    rows = ["".join("Y" if rng.random() < 0.15 else "N" for _ in range(t)) for _ in range(2 * t)]
    return "\n".join(rows + [f"{2 * t - 1}x " + "Y" * t]) + "\n"


@pytest.fixture
def sparse_draw():
    """The text of a sparse draw, as a function of (t, seed)."""
    return _sparse_draw


@pytest.fixture
def over_budget_file(tmp_path) -> str:
    """The sparse draw of t = 80, seed 6, whose search of level 61 passes the
    oracle's node budget for the best proposal, though not for md."""
    path = tmp_path / "draw80.txt"
    path.write_text(_sparse_draw(80, 6))
    return str(path)
