"""Every float setting of a settings type obeys core.check_setting's rule:
NaN and infinities are rejected when the setting is built, with a message
that names the parameter.  The float parameters are read from each type's
signature and type hints, as fileio.read_config reads a config section, so
a parameter added later is covered without editing this file."""

import dataclasses
import inspect
import math
import typing

import pytest

from echocrawl.core import MetricConfig, ProfitCurve
from echocrawl.estimators import ClickHistogram, EstimatorState
from echocrawl.optimizer import SolverConfig
from echocrawl.simulator import RunConfig, ScenarioConfig, SourceSpec

# each settings type with the arguments it requires
SETTINGS = {
    ScenarioConfig: {"source_specs": (SourceSpec(0.001, 1.0, 0.001),), "horizon": 3600.0},
    RunConfig: {},
    MetricConfig: {},
    ProfitCurve: {"profit": 1.0, "decay": 0.001},
    ClickHistogram: {"bin_size": 60.0, "cumulative": [0.0, 1.0], "page_count": 1},
    SolverConfig: {},
    EstimatorState: {},
}

# +inf is a valid max_click_age: clicks of every age enter the histogram
INFINITY_ALLOWED = {(EstimatorState, "max_click_age")}


def float_parameters(cls) -> "list[str]":
    """The parameters of cls hinted float, or float or None."""
    hints = typing.get_type_hints(cls if dataclasses.is_dataclass(cls) else cls.__init__)
    return [
        name
        for name in inspect.signature(cls).parameters
        if hints[name] is float or set(typing.get_args(hints[name])) == {float, type(None)}
    ]


CASES = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value}")
    for cls in SETTINGS
    for name in float_parameters(cls)
    for value in (math.nan, math.inf, -math.inf)
    if not (value == math.inf and (cls, name) in INFINITY_ALLOWED)
]


def test_every_type_has_float_settings():
    assert all(float_parameters(cls) for cls in SETTINGS)


@pytest.mark.parametrize("cls, name, value", CASES)
def test_non_finite_float_setting_is_rejected(cls, name, value):
    cls(**SETTINGS[cls])  # the required arguments alone are valid
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**{**SETTINGS[cls], name: value})
