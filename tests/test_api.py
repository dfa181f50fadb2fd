"""Shape of the public analysis API."""

import inspect

import pytest

from torusns import diagnostics, dynamics


@pytest.mark.parametrize("module", [diagnostics, dynamics], ids=lambda m: m.__name__)
def test_run_functions_take_params_from_the_trajectory(module):
    """A function of a run reads the run's parameters from
    `trajectory.params`; a second `params` argument could disagree with it."""
    both = [name for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_")
            and {"trajectory", "params"} <= set(inspect.signature(fn).parameters)]
    assert not both, f"take both `trajectory` and `params`: {both}"
