import importlib.util
import pathlib

import pytest

from torusns import spectral

CENSUS = pathlib.Path(__file__).resolve().parents[1] / "tools" / "transform_census.py"


@pytest.fixture(scope="session")
def transform_census():
    """tools/transform_census.py as a module; importing it changes nothing."""
    spec = importlib.util.spec_from_file_location("transform_census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def fft_calls(transform_census):
    """The package's transforms, counted at the compiled kernels that
    `spectral` calls by `transform_census.Census` while the test runs: its
    `totals`, "rfftn" and "irfftn" calls, their fields under "rfftn_fields"
    and "irfftn_fields", and "c2c" passes (see `Census`)."""
    with transform_census.Census(spectral) as census:
        yield census.totals
