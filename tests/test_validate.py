"""The self checks' shipped parameter sets, pinned field by field."""

from scatter_entangle.validate import shipped_parameter_sets

# 1 / mu_red for mu1 = 0.2, whose mu_red = 0.2 * 0.8 rounds to 0.16000000000000003
ALPHA_42 = 6.249999999999999

# name: (mu1, M, k, sigma1, sigma2, a1, a2, scatterers)
EXPECTED = {
    "hard_core/equal_mass": (0.5, 1.0, 1.0, 0.1, 0.2, 0.0, 0.0, ()),
    "hard_core/m2_4m1": (0.2, 1.0, 1.0, 0.1, 0.2, 0.0, 0.0, ()),
    "delta/m2_4m1_c_half": (0.2, 1.0, 1.0, 0.2, 0.1, 0.0, 0.0, ((ALPHA_42, 0.0),)),
    "delta/equal_mass": (0.5, 1.0, 1.0, 0.2, 0.2, 0.0, 0.0, ((4.0, 0.0),)),
    "delta/schulman": (0.2, 1.0, 1.0, 0.1, 0.2, 0.0, 0.0, ((ALPHA_42, 0.0),)),
    "double_delta/off_resonance": (
        0.2, 1.0, 0.1, 0.01, 0.005, 0.0, 0.0, ((ALPHA_42, -10.0), (ALPHA_42, 10.0)),
    ),
}


def test_shipped_parameter_sets_are_pinned():
    cases = shipped_parameter_sets()
    assert [c.name for c in cases] == list(EXPECTED)
    for case in cases:
        st = case.state
        got = (st.masses.mu1, st.masses.M, st.k, st.sigma1, st.sigma2, st.a1, st.a2)
        assert got + (case.model.scatterers,) == EXPECTED[case.name], case.name
        assert case.model.masses == st.masses, case.name
