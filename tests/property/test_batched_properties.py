"""Property-based tests: batched kernel == sequential solver.

Random stable MMPP(2) FG/BG models (lag-1 ACF decay <= 0.9), solved both
through ``model.solve()`` and through the stacked kernel; every published
metric must agree within 1e-10 -- including the deliberate NaN
``bg_completion_rate`` of models below ``NEAR_ZERO_BG_PROBABILITY``,
which build their chain without background states and therefore exercise
the kernel's shape grouping.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import FgBgModel, solve_models_batched
from repro.core.metrics import NEAR_ZERO_BG_PROBABILITY
from repro.processes import MMPP
from repro.workloads.paper import SERVICE_RATE_PER_MS

MU = SERVICE_RATE_PER_MS


@st.composite
def stable_mmpp_models(draw, bg_probability=None):
    """Random stable FG/BG models with MMPP(2) arrivals, decay <= 0.9.

    Built directly from random switching/arrival rates (the least-squares
    fitter is too slow -- and not total -- for property tests)."""
    v1 = draw(st.floats(min_value=0.01, max_value=1.0))
    v2 = draw(st.floats(min_value=0.01, max_value=1.0))
    l1 = draw(st.floats(min_value=0.5, max_value=5.0))
    l2 = draw(st.floats(min_value=0.01, max_value=0.4))
    util = draw(st.floats(min_value=0.05, max_value=0.7))
    if bg_probability is None:
        # Either exactly zero (the no-background-states shape) or a
        # numerically meaningful probability.  The grey zone just above
        # NEAR_ZERO_BG_PROBABILITY builds the background states but every
        # BG metric is O(p) cancellation noise, where two correct solvers
        # legitimately differ beyond 1e-10 relative.
        bg_probability = draw(
            st.one_of(
                st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)
            )
        )
    mmpp = MMPP.two_state(v1, v2, l1, l2)
    acf = mmpp.acf(2)
    assume(abs(acf[0]) > 1e-12)
    assume(0.0 < acf[1] / acf[0] <= 0.9)
    arrival = mmpp.scaled_to_utilization(util, MU)
    return FgBgModel(
        arrival=arrival, service_rate=MU, bg_probability=bg_probability
    )


def assert_solutions_agree(sequential, batched):
    for name, seq_value in sequential.as_dict().items():
        bat_value = getattr(batched, name)
        if np.isnan(seq_value):
            assert np.isnan(bat_value)
        else:
            np.testing.assert_allclose(
                bat_value, seq_value, atol=1e-10, rtol=1e-10
            )


class TestBatchedEqualsSequential:
    @given(model=stable_mmpp_models())
    @example(
        # p = 1e-6: BG probabilities near 1e-14, whose relative accuracy
        # bg_response_time (a ratio of two tiny sums) exposes.
        model=FgBgModel(
            arrival=MMPP.two_state(v1=0.222222, v2=0.111111, l1=0.222222, l2=0.0138889),
            service_rate=MU,
            bg_probability=1e-6,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_single_model(self, model):
        (batched,), _ = solve_models_batched([model])
        assert_solutions_agree(model.solve(), batched)

    @given(
        model=stable_mmpp_models(),
        utils=st.lists(
            st.floats(min_value=0.05, max_value=0.9),
            min_size=2,
            max_size=5,
            unique=True,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_sweep_axis(self, model, utils):
        models = [model.at_utilization(u) for u in utils]
        batched, _ = solve_models_batched(models)
        for m, b in zip(models, batched):
            assert_solutions_agree(m.solve(), b)

    @given(model=stable_mmpp_models(bg_probability=0.0))
    @settings(max_examples=10, deadline=None)
    def test_near_zero_bg_probability_is_nan(self, model):
        assert model.bg_probability < NEAR_ZERO_BG_PROBABILITY
        (batched,), _ = solve_models_batched([model])
        assert np.isnan(batched.bg_completion_rate)
        assert_solutions_agree(model.solve(), batched)

    @given(model=stable_mmpp_models())
    @settings(max_examples=10, deadline=None)
    def test_mixed_shape_batch(self, model):
        # p = 0 and p > 0 models have different block shapes; the
        # model-level wrapper must group them and keep input order.
        models = [
            model.with_bg_probability(0.0),
            model.with_bg_probability(max(model.bg_probability, 0.1)),
        ]
        batched, _ = solve_models_batched(models)
        assert np.isnan(batched[0].bg_completion_rate)
        for m, b in zip(models, batched):
            assert_solutions_agree(m.solve(), b)
