"""The scale-preset table: one name -> ExperimentScale mapping for every caller."""

import pytest

from repro.experiments.config import SCALE_PRESETS, ExperimentScale


@pytest.mark.parametrize("name", SCALE_PRESETS)
def test_preset_equals_its_classmethod(name):
    assert ExperimentScale.preset(name) == getattr(ExperimentScale, name)()


@pytest.mark.parametrize("name", ["smok", "Smoke", "", None, ["smoke"]])
def test_unknown_preset_raises_listing_the_valid_names(name):
    with pytest.raises(ValueError, match="smoke, benchmark, paper"):
        ExperimentScale.preset(name)
