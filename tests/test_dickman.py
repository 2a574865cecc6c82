import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickmanlab import audits, cumulants, exact_dist, simulate
from dickmanlab.dickman import (
    EULER_GAMMA,
    DickmanRangeError,
    build_rho_table,
    dickman_cdf,
    dickman_density,
    rho,
    rho_integral,
    rho_sq_integral,
)

# 50-digit independent quadrature of the delay equation, frozen here.
RHO_25_REF = 0.13031956183225074561114389
RHO_3_REF = 0.048608388291131566907183037


def test_rho_is_one_on_unit_interval(table):
    for x in (0.0, 0.25, 0.5, 1.0):
        assert rho(table, x) == 1.0


def test_closed_form_on_second_interval(table):
    for x in (1.1, 1.5, 1.999, 2.0):
        assert rho(table, x) == pytest.approx(1.0 - math.log(x), abs=1e-10)


def test_against_high_precision_oracle(table):
    assert rho(table, 2.5) == pytest.approx(RHO_25_REF, abs=1e-8)
    assert rho(table, 3.0) == pytest.approx(RHO_3_REF, abs=1e-8)


def test_monotone_and_positive(table):
    v = table.values
    assert np.all(v > 0.0)
    start = round(1.0 / table.step)
    assert np.all(np.diff(v[start:]) <= 0.0)


def test_step_halving_convergence():
    a = build_rho_table(x_max=6.0, step=1e-3)
    b = build_rho_table(x_max=6.0, step=5e-4)
    assert abs(rho(a, 6.0) - rho(b, 6.0)) < 1e-10


def test_density_and_cdf_values(table):
    assert dickman_density(table, 0.0) == pytest.approx(math.exp(-EULER_GAMMA), abs=1e-10)
    assert dickman_cdf(table, 0.0) == 0.0
    assert dickman_cdf(table, 1.0) == pytest.approx(math.exp(-EULER_GAMMA), abs=1e-10)


def test_integral_identities(table):
    assert rho_integral(table, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert rho_sq_integral(table, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert rho_integral(table, 30.0) == pytest.approx(math.exp(EULER_GAMMA), abs=1e-6)


def test_difference_identity(table):
    # D(x) - D(x-1) = x e^-gamma rho(x)
    for x in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0):
        lhs = dickman_cdf(table, x) - (dickman_cdf(table, x - 1.0) if x > 1.0 else 0.0)
        rhs = x * math.exp(-EULER_GAMMA) * rho(table, x)
        assert abs(lhs - rhs) < 1e-8


def test_out_of_range_queries(table):
    with pytest.raises(DickmanRangeError):
        rho(table, -0.5)
    with pytest.raises(DickmanRangeError):
        rho(table, 31.0)
    with pytest.raises(DickmanRangeError):
        rho_integral(table, 0.0)


def test_build_preconditions():
    with pytest.raises(ValueError):
        build_rho_table(x_max=1.5)
    with pytest.raises(ValueError):
        build_rho_table(step=0.0)
    with pytest.raises(ValueError):
        build_rho_table(step=float("nan"))
    with pytest.raises(ValueError):
        build_rho_table(step=0.05)


def test_cdf_monotone_and_bounded(table):
    xs = np.linspace(0.1, 30.0, 200)
    vals = [dickman_cdf(table, float(x)) for x in xs]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)


@given(xs=st.lists(st.one_of(st.integers(0, 30000).map(lambda k: k / 1000),
                             st.floats(0.0, 30.0), st.sampled_from([0.0, 30.0])),
                   min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_array_cdf_is_the_scalar_cdf_bit_for_bit(table, xs):
    # Nodes k/1000, 0 and x_max included: they take the node-snap branch.
    arr = dickman_cdf(table, np.array(xs))
    one_by_one = np.array([dickman_cdf(table, x) for x in xs])
    assert arr.shape == (len(xs),)
    assert arr.tobytes() == one_by_one.tobytes()


def test_array_with_one_out_of_range_entry_raises(table):
    for bad in (-0.5, 31.0, float("nan"), float("inf")):
        with pytest.raises(DickmanRangeError):
            dickman_cdf(table, np.array([0.5, 1.0, bad, 2.0]))


def test_table_and_integral_inputs_raise_their_own_message(table):
    with pytest.raises(ValueError, match=r"^step must divide 1 \(got 0\.003\)$"):
        build_rho_table(step=0.003)  # 1/0.003 is not an integer number of steps
    with pytest.raises(DickmanRangeError, match=r"^upto must be positive, got 0\.0$"):
        rho_sq_integral(table, 0.0)


def test_records_are_named_tuples_built_whole(table):
    kappa = exact_dist.KappaSeq(1)
    records = [
        (exact_dist.pmf(0, 6), ("m", "n", "probs", "mode")),
        (table, ("x_max", "step", "values", "cum_rho", "cum_rho_sq", "cdf_gap")),
        (audits.AUDITS["w2"], ("key", "pairs", "plan", "solve", "slopes")),
        (cumulants.cumulant_explicit(4), ("n", "coeffs")),
        (simulate.simulate_path(kappa, 100, seed=1), ("seed", "N", "hits", "log_avg")),
        (audits.llt_table(kappa, [20], table)[0],
         ("label", "m", "n", "x", "kappa_m", "kappa_n", "lhs", "envelope")),
    ]
    for record, fields in records:
        assert isinstance(record, tuple) and type(record)._fields == fields
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)
        assert not hasattr(record, "__dict__")  # so no read caches into it
    gap = np.abs(1.0 - math.exp(-EULER_GAMMA) * table.cum_rho)
    assert table.cdf_gap.tobytes() == np.maximum.accumulate(gap[::-1])[::-1].tobytes()
