import pathlib
import sys

import pytest

from torusns import spectral

# tools/ on the path, as for a script run from it: the tools import `audit`
TOOLS = str(pathlib.Path(__file__).resolve().parents[1] / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import audit  # noqa: E402  (tools/audit.py; importing it changes nothing)


@pytest.fixture()
def fft_calls():
    """The package's transforms, counted at the compiled kernels that
    `spectral` calls by `audit.Census` while the test runs: its `totals`,
    "rfftn" and "irfftn" calls, their fields under "rfftn_fields" and
    "irfftn_fields", and "c2c" passes (see `Census`)."""
    with audit.Census(spectral) as census:
        yield census.totals
