import json
from functools import cached_property
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


@pytest.fixture
def spy_on_block_factor(monkeypatch):
    """``spy(name, record)``: each computation of a frame block's cached factor ``name`` calls ``record(block)``."""
    from pbt_recycling import partitions

    def spy(name, record):
        real = vars(partitions._Block)[name].func

        def factor(block):
            record(block)
            return real(block)

        wrapped = cached_property(factor)
        wrapped.__set_name__(partitions._Block, name)
        monkeypatch.setattr(partitions._Block, name, wrapped)

    return spy
