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


@pytest.fixture
def over_budget_file(tmp_path) -> str:
    """A matrix whose search of level 61 passes the oracle's node budget: 160
    voters over t = 80, each opinion Y with probability 0.15 (seed 6), and an
    all-Y block of weight 159 that leaves every column a Y-majority."""
    rng, t = random.Random(6), 80
    rows = ["".join("Y" if rng.random() < 0.15 else "N" for _ in range(t)) for _ in range(2 * t)]
    path = tmp_path / "draw80.txt"
    path.write_text("\n".join(rows + [f"{2 * t - 1}x " + "Y" * t]) + "\n")
    return str(path)
