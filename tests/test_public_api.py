"""Tests for the top-level package surface."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "processes",
    "markov",
    "qbd",
    "core",
    "contracts",
    "engine",
    "faults",
    "jobs",
    "sim",
    "vacation",
    "workloads",
    "experiments",
]


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "name",
        [
            "FgBgModel",
            "FgBgSolution",
            "MarkovianArrivalProcess",
            "MMPP",
            "PoissonProcess",
            "InterruptedPoissonProcess",
            "PhaseType",
            "FgBgSimulator",
        ],
    )
    def test_classes_reachable(self, name):
        assert getattr(repro, name) is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackages_reachable(self, name):
        module = getattr(repro, name)
        assert module.__name__ == f"repro.{name}"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_every_reexport_resolves(self, name):
        # Lazy (PEP 562) entries fail only on access, so touch them all.
        module = importlib.import_module(f"repro.{name}")
        for export in module.__all__:
            getattr(module, export)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.nonexistent_thing

    def test_quickstart_from_docstring(self):
        # The README/-docstring quickstart must actually run.
        from repro import FgBgModel, workloads

        model = FgBgModel(
            arrival=workloads.email().scaled_to_utilization(
                0.3, workloads.SERVICE_RATE_PER_MS
            ),
            service_rate=workloads.SERVICE_RATE_PER_MS,
            bg_probability=0.3,
        )
        solution = model.solve()
        assert 0 < solution.bg_completion_rate <= 1
