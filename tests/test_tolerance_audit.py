"""The tolerance audit of the ladders' geometric stop, against committed references.

tests/tolerance_audit.py wrote tests/data/tolerance_audit.json: fine-grid
split totals of the reference sweep's rows and of criterion 10's points, and
which of them the geometric estimate stops a level early. Each shortened
point must still converge within rel_tol of its fine total, and still stop
at its recorded grids, so that the saving stays in place.
"""

import json

import pytest

import tolerance_audit
from scatter_entangle.amplitudes import AmplitudeModel
from scatter_entangle.analytic import reflected_gaussian_purity
from scatter_entangle.kinematics import MassPartition
from scatter_entangle.purity import check_ladder, purity_out
from scatter_entangle.wavefunction import GaussianInState

SHORTENED = [r for r in json.loads(tolerance_audit.DATA.read_text()) if r["shortened"]]


def test_the_audit_records_shortened_points():
    assert SHORTENED


@pytest.mark.parametrize("rec", SHORTENED, ids=lambda r: f"seed{r['seed']}-{r['label']}")
def test_a_shortened_point_converges_within_rel_tol_at_its_recorded_grids(rec):
    rep = tolerance_audit.run(rec)
    assert rep.converged
    assert abs(rep.purity - rec["fine"]) <= rec["rel_tol"] * rec["fine"]
    assert tolerance_audit.grids(rep) == rec["grids"]


@pytest.mark.parametrize("mu1", [0.1, 0.9])
@pytest.mark.parametrize("s1, s2", [(0.3, 0.05), (0.05, 0.3)])
def test_a_hard_core_corner_converges_within_rel_tol_of_its_closed_form(mu1, s1, s2):
    # the light benchmark's hard-core corners, run with the default engine
    mp = MassPartition(mu1)
    state = GaussianInState(k=1.0, sigma1=s1, sigma2=s2, masses=mp)
    rep = purity_out(state, AmplitudeModel.hard_core(mp), spectrum=False)
    want = reflected_gaussian_purity(mp, s1, s2)
    assert rep.converged
    assert abs(rep.purity - want) <= check_ladder()["rel_tol"] * want
