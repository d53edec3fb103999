import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def pinned():
    """Oracle-derived constants frozen in the data directory."""
    text = resources.files("pbt_recycling").joinpath("data/pinned_values.json").read_text()
    raw = json.loads(text)
    return {k: v["value"] for k, v in raw.items()}


@pytest.fixture(scope="session")
def vcoeff_path():
    """Coefficient files from an offline optimisation, kept as regression fixtures."""

    def path_for(N, d):
        return Path(__file__).resolve().parent / "fixtures" / f"v_n{N}_d{d}.json"

    return path_for
