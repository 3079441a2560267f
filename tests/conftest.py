import os
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
