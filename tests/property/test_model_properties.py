"""Property-based tests on the FG/BG model's invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import BgServiceMode, FgBgModel
from repro.processes import MMPP, PoissonProcess

MU = 1.0

utils = st.floats(min_value=0.02, max_value=0.95)
probs = st.floats(min_value=0.0, max_value=1.0)
buffers = st.integers(min_value=0, max_value=8)
idle_multiples = st.floats(min_value=0.1, max_value=10.0)
modes = st.sampled_from(list(BgServiceMode))


@st.composite
def models(draw):
    util = draw(utils)
    if draw(st.booleans()):
        arrival = PoissonProcess(util * MU)
    else:
        v1 = draw(st.floats(min_value=1e-4, max_value=1.0))
        v2 = draw(st.floats(min_value=1e-4, max_value=1.0))
        l1 = draw(st.floats(min_value=0.1, max_value=5.0))
        l2 = draw(st.floats(min_value=0.0, max_value=0.1))
        arrival = MMPP.two_state(v1=v1, v2=v2, l1=l1, l2=l2).scaled_to_rate(util * MU)
    return FgBgModel(
        arrival=arrival,
        service_rate=MU,
        bg_probability=draw(probs),
        bg_buffer=draw(buffers),
        idle_wait_rate=MU / draw(idle_multiples),
        bg_mode=draw(modes),
    )


#: Models Hypothesis once found failing (nearly decomposable, sp(R) within
#: ~1e-5 of 1), run by every invariant below.
FOUND_MODELS = (
    FgBgModel(
        arrival=MMPP.two_state(
            v1=5.93e-5, v2=5.93e-5, l1=1.874, l2=3.6e-76
        ).scaled_to_rate(0.937),
        service_rate=MU,
        bg_probability=0.771,
        bg_buffer=7,
        idle_wait_rate=10.0,
        bg_mode=BgServiceMode.REWAIT,
    ),
    FgBgModel(
        arrival=MMPP.two_state(v1=1e-4, v2=1e-4, l1=5.0, l2=0.0).scaled_to_rate(
            0.95
        ),
        service_rate=MU,
        bg_probability=0.0,
        bg_buffer=0,
        idle_wait_rate=10.0,
    ),
)


def with_found_models(test):
    """Add every model of :data:`FOUND_MODELS` as an explicit example."""
    for model in FOUND_MODELS:
        test = example(model)(test)
    return test


class TestModelInvariants:
    @given(models())
    @with_found_models
    @settings(max_examples=40, deadline=None)
    def test_probability_metrics_in_unit_interval(self, model):
        s = model.solve()
        for name in (
            "fg_delayed_fraction",
            "fg_arrival_delayed_fraction",
            "fg_server_share",
            "bg_server_share",
            "idle_probability",
        ):
            value = getattr(s, name)
            assert -1e-9 <= value <= 1.0 + 1e-9, name
        if not np.isnan(s.bg_completion_rate):
            assert -1e-9 <= s.bg_completion_rate <= 1.0 + 1e-9

    @given(models())
    @with_found_models
    @settings(max_examples=40, deadline=None)
    def test_flow_conservation(self, model):
        s = model.solve()
        # FG throughput equals arrival rate; BG completions equal admitted.
        assert np.isclose(s.fg_throughput, model.arrival.mean_rate, rtol=1e-6)
        assert np.isclose(
            s.bg_throughput, s.bg_spawn_rate - s.bg_drop_rate, rtol=1e-6, atol=1e-12
        )

    @given(models())
    @with_found_models
    @settings(max_examples=40, deadline=None)
    def test_time_partition(self, model):
        s = model.solve()
        assert np.isclose(
            s.fg_server_share + s.bg_server_share + s.idle_probability,
            1.0,
            atol=1e-8,
        )

    @given(models())
    @with_found_models
    @settings(max_examples=40, deadline=None)
    def test_queue_lengths_consistent(self, model):
        s = model.solve()
        assert s.fg_queue_length >= s.fg_server_share - 1e-9
        assert 0 <= s.bg_queue_length <= max(model.bg_buffer, 0) + 1e-9
        # Little's law consistency by construction.
        assert np.isclose(
            s.fg_response_time * model.arrival.mean_rate, s.fg_queue_length, rtol=1e-9
        )

    @given(models())
    @with_found_models
    @settings(max_examples=30, deadline=None)
    def test_bg_qlen_bounded_by_buffer_unless_spawning(self, model):
        s = model.solve()
        if model.bg_probability == 0:
            assert s.bg_queue_length == 0.0
