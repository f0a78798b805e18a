"""analytic.references: one decision point builds every reference model."""

import pytest

from repro.analytic.occ import OccModel
from repro.analytic.references import reference_model_for, reference_optimum
from repro.analytic.tay import TayModel, TayThroughputModel
from repro.cc import CCSpec
from repro.experiments.config import default_system_params

SCHEMES = [None, "two_phase_locking", "wound_wait", "timestamp_cert"]


def cc_for(kind):
    return None if kind is None else CCSpec.make(kind)


def small_database(params):
    return params.workload.with_changes(db_size=200)


@pytest.mark.parametrize("kind", SCHEMES)
def test_reference_optimum_reads_the_model_reference_model_for_builds(kind):
    params = default_system_params()
    name, model = reference_model_for(params, cc_for(kind))
    optimal = float(model.optimal_mpl())
    assert reference_optimum(params, cc_for(kind)) == (
        name, optimal, float(model.throughput(optimal)))


@pytest.mark.parametrize("kind, model_type", [
    ("two_phase_locking", TayThroughputModel),
    ("timestamp_cert", OccModel),
])
def test_workload_override_reaches_the_model(kind, model_type):
    params = default_system_params()
    workload = small_database(params)
    _name, model = reference_model_for(params, cc_for(kind), workload=workload)
    assert isinstance(model, model_type)
    assert model.workload is workload
    _name, rebuilt = reference_model_for(
        params.with_changes(workload=workload), cc_for(kind))
    assert model.optimal_mpl() == rebuilt.optimal_mpl()
    assert reference_optimum(params, cc_for(kind), workload=workload)[1:] != \
        reference_optimum(params, cc_for(kind))[1:]


def test_locking_reference_defaults_to_the_tay_waiting_share():
    _name, model = reference_model_for(default_system_params(),
                                       cc_for("two_phase_locking"))
    assert model.tay.waiting_share == TayModel.waiting_share
