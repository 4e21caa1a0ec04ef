"""Tests for the sweep helpers."""

import numpy as np
import pytest

from repro.core import FgBgModel
from repro.engine import EngineConfig, SweepEngine
from repro.experiments.sweeps import (
    BG_PROBABILITIES,
    SweepAxis,
    bg_probability_axis,
    idle_wait_axis,
    sweep,
    sweep_many,
    utilization_axis,
)
from repro.processes import PoissonProcess
from repro.workloads import SERVICE_RATE_PER_MS

from ..conftest import functional_iteration_solution

MU = SERVICE_RATE_PER_MS


def poisson_base(p=0.0, **kwargs):
    return FgBgModel(
        arrival=PoissonProcess(0.01), service_rate=MU, bg_probability=p, **kwargs
    )


class TestAxes:
    def test_utilization_axis_transform(self):
        axis = utilization_axis([0.2, 0.5])
        models = axis.models(poisson_base())
        assert [m.fg_utilization for m in models] == pytest.approx([0.2, 0.5])

    def test_idle_wait_axis_transform(self):
        axis = idle_wait_axis([0.5, 2.0])
        models = axis.models(poisson_base())
        assert models[0].effective_idle_wait_rate == pytest.approx(MU / 0.5)
        assert models[1].effective_idle_wait_rate == pytest.approx(MU / 2.0)

    def test_bg_probability_axis_transform(self):
        axis = bg_probability_axis([0.1, 0.9])
        models = axis.models(poisson_base())
        assert [m.bg_probability for m in models] == [0.1, 0.9]

    def test_x_is_float_array(self):
        axis = utilization_axis((0.2, 0.4))
        np.testing.assert_array_equal(axis.x(), [0.2, 0.4])
        assert axis.x().dtype == float


class TestSweep:
    def test_metric_by_registry_key(self):
        series = sweep(poisson_base(), utilization_axis([0.5]), "qlen_fg")
        # M/M/1 at rho = 0.5.
        assert series.y[0] == pytest.approx(1.0, rel=1e-9)

    def test_metric_by_callable(self):
        series = sweep(
            poisson_base(),
            utilization_axis([0.5]),
            lambda s: s.fg_queue_length,
        )
        assert series.y[0] == pytest.approx(1.0, rel=1e-9)

    def test_unknown_metric_key_raises(self):
        with pytest.raises(KeyError, match="unknown metric"):
            sweep(poisson_base(), utilization_axis([0.5]), "nope")

    def test_custom_axis(self):
        axis = SweepAxis(
            name="buffer",
            values=(1.0, 10.0),
            transform=lambda m, x: FgBgModel(
                arrival=m.arrival,
                service_rate=m.service_rate,
                bg_probability=m.bg_probability,
                bg_buffer=int(x),
            ),
        )
        base = poisson_base(p=0.9).at_utilization(0.5)
        series = sweep(base, axis, "comp_bg")
        assert series.y[1] > series.y[0]

    def test_label_defaults_to_axis_name(self):
        axis = utilization_axis([0.3])
        assert sweep(poisson_base(), axis, "qlen_fg").label == axis.name
        assert (
            sweep(poisson_base(), axis, "qlen_fg", label="mine").label == "mine"
        )

    def test_engine_is_used(self):
        engine = SweepEngine()
        sweep(poisson_base(), utilization_axis([0.2, 0.4]), "qlen_fg", engine=engine)
        assert engine.stats.solves == 2

    def test_config_builds_the_engine(self):
        """An engine built from a config runs the sweep like the default."""
        args = (poisson_base(), utilization_axis([0.2, 0.4]), "qlen_fg")
        engine = EngineConfig(on_error="collect").build_engine()
        via_engine = sweep(*args, engine=engine)
        np.testing.assert_array_equal(via_engine.y, sweep(*args).y)
        assert engine.stats.solves == 2

    @pytest.mark.parametrize("knob", ["config", "batched", "on_error"])
    def test_engine_knobs_are_not_keywords(self, knob):
        """The engine's settings reach sweep()/sweep_many() only through
        the engine itself."""
        args = (poisson_base(), utilization_axis([0.2]), "qlen_fg")
        with pytest.raises(TypeError, match=knob):
            sweep(*args, **{knob: None})
        with pytest.raises(TypeError, match=knob):
            sweep_many(*args, bg_probabilities=[0.1], **{knob: None})


class TestSweepMany:
    def test_one_series_per_probability(self):
        series = sweep_many(
            poisson_base(),
            utilization_axis([0.2, 0.4]),
            "qlen_fg",
            bg_probabilities=[0.1, 0.9],
        )
        assert [s.label for s in series] == ["p = 0.1", "p = 0.9"]
        assert all(s.x.shape == (2,) for s in series)

    def test_batched_engine_matches_serial(self):
        axis = utilization_axis([0.2, 0.4, 0.6])
        batched = sweep_many(
            poisson_base(),
            axis,
            "qlen_fg",
            bg_probabilities=[0.1, 0.6, 0.9],
            engine=SweepEngine(EngineConfig(batched=True)),
        )
        for p, b in zip([0.1, 0.6, 0.9], batched):
            models = axis.models(poisson_base().with_bg_probability(p))
            serial = [
                functional_iteration_solution(model).fg_queue_length
                for model in models
            ]
            np.testing.assert_allclose(b.y, serial, rtol=1e-9)


class TestLoadSweep:
    """The utilization-sweep shape load_sweep_series used to provide.

    The deprecated wrapper is gone; these pin the replacement
    spelling -- ``sweep_many`` over ``utilization_axis`` -- to the same
    behavior the wrapper had.
    """

    def test_one_series_per_probability(self):
        series = sweep_many(
            poisson_base(),
            utilization_axis([0.2, 0.4]),
            lambda s: s.fg_queue_length,
            bg_probabilities=[0.1, 0.9],
        )
        assert [s.label for s in series] == ["p = 0.1", "p = 0.9"]
        assert all(s.x.shape == (2,) for s in series)

    def test_metric_applied(self):
        (series,) = sweep_many(
            poisson_base(),
            utilization_axis([0.5]),
            lambda s: s.fg_queue_length,
            bg_probabilities=[0.0],
        )
        # M/M/1 at rho = 0.5.
        assert series.y[0] == pytest.approx(1.0, rel=1e-9)

    def test_model_kwargs_forwarded(self):
        (small,) = sweep_many(
            poisson_base(bg_buffer=1),
            utilization_axis([0.5]),
            lambda s: s.bg_completion_rate,
            bg_probabilities=[0.9],
        )
        (large,) = sweep_many(
            poisson_base(bg_buffer=10),
            utilization_axis([0.5]),
            lambda s: s.bg_completion_rate,
            bg_probabilities=[0.9],
        )
        assert large.y[0] > small.y[0]

    def test_paper_probability_grid(self):
        assert BG_PROBABILITIES == (0.0, 0.1, 0.3, 0.6, 0.9)


class TestIdleWaitSweep:
    """The idle-wait-sweep shape idle_wait_sweep_series used to provide."""

    def test_x_axis_is_multiples(self):
        arrival = PoissonProcess(0.3 * SERVICE_RATE_PER_MS)
        (series,) = sweep_many(
            FgBgModel(arrival=arrival, service_rate=MU, bg_probability=0.0),
            idle_wait_axis([0.5, 1.0, 2.0]),
            lambda s: s.bg_completion_rate,
            bg_probabilities=[0.6],
        )
        np.testing.assert_array_equal(series.x, [0.5, 1.0, 2.0])
        assert np.all(np.diff(series.y) < 0)
