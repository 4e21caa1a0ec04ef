"""Unit tests of the shape/stochastic-kind abstract interpreter.

Three layers, mirroring tools/reprolint/shapes.py:

* the lattice itself -- ``ArrayFact``, ``join``, the canonical seeds;
* the transfer functions -- matmul, kron, stacking, slicing, reductions,
  elementwise broadcasts -- exercised through ``lint_source`` so the
  facts are observed exactly the way the rules observe them;
* the rules against **real modules**: for every rule RL016-RL020 a bug
  is injected into the actual repro source and must be reported at the
  injected line (and the unmodified module must stay clean).

The cross-file wrapper pass (``Project._rl016_rl017_shape_flow``) is
tested on synthetic packages at the bottom.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tools.reprolint.core import lint_source
from tools.reprolint.project import Project
from tools.reprolint.shapes import (
    CANONICAL_SEEDS,
    GENERATOR,
    PROB_SCALAR,
    RATE_BLOCK,
    RATE_SCALAR,
    SUBGENERATOR,
    ArrayFact,
    join,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_PATH = "src/repro/qbd/fake.py"  # non-test path: all rules active


def codes(violations):
    return [v.code for v in violations]


def shape_codes(source, path=SRC_PATH):
    return [v for v in lint_source(source, path) if v.code.startswith("RL0")
            and v.code >= "RL016"]


def write_tree(tmp_path: Path, files: dict[str, str]) -> list[Path]:
    paths = []
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        paths.append(target)
    return paths


# ---------------------------------------------------------------------------
# The lattice
# ---------------------------------------------------------------------------


def test_join_is_agreement():
    a = ArrayFact(("m", "m"), SUBGENERATOR)
    assert join(a, a) == a
    assert join(a, None) is None
    merged = join(a, ArrayFact(("m", "n_b"), SUBGENERATOR))
    assert merged.shape == ("m", "?")
    assert merged.kind == SUBGENERATOR
    assert join(a, ArrayFact(("m", "m"), RATE_BLOCK)).kind is None


def test_join_drops_rank_disagreement_and_flags():
    a = ArrayFact(("m", "m"), transposed=True, stacked=True)
    b = ArrayFact(("N", "m", "m"))
    assert join(a, b).shape is None
    assert not join(a, b).transposed  # transposed only if both are
    assert not join(a, b).stacked


def test_fact_json_roundtrip():
    fact = ArrayFact(("N", "m", "m"), RATE_BLOCK, stacked=True)
    assert ArrayFact.from_json(fact.to_json()) == fact
    unknown = ArrayFact(None, None)
    assert ArrayFact.from_json(unknown.to_json()) == unknown


def test_canonical_seeds_cover_the_model_fields():
    assert CANONICAL_SEEDS["d0"].kind == SUBGENERATOR
    assert CANONICAL_SEEDS["d1"].kind == RATE_BLOCK
    assert CANONICAL_SEEDS["b01"].shape == ("n_b", "m")
    assert CANONICAL_SEEDS["b10"].shape == ("m", "n_b")
    assert CANONICAL_SEEDS["service_rate"].kind == RATE_SCALAR
    assert CANONICAL_SEEDS["bg_probability"].kind == PROB_SCALAR


# ---------------------------------------------------------------------------
# Transfer functions (observed through the rules)
# ---------------------------------------------------------------------------


def test_assignment_kills_the_canonical_seed():
    # A locally computed d0 means *that* value, not the field seed: the
    # proper-generator construction below must not be mistaken for a
    # standalone subgenerator.
    source = (
        "import numpy as np\n"
        "def build(rates):\n"
        "    base = np.asarray(rates, dtype=float)\n"
        "    d0 = base - np.diag(base.sum(axis=1))\n"
        "    return stationary_distribution(d0)\n"
    )
    assert shape_codes(source) == []


def test_d0_plus_d1_is_a_generator():
    source = (
        "def phase_pi(d0, d1):\n"
        "    return stationary_distribution(d0 + d1)\n"
    )
    assert shape_codes(source) == []


def test_standalone_d0_into_stationary_fires_rl017():
    source = (
        "def phase_pi(d0):\n"
        "    return stationary_distribution(d0)\n"
    )
    assert codes(shape_codes(source)) == ["RL017"]


def test_transposed_block_into_r_matrix_fires_rl016():
    source = (
        "from repro.qbd.rmatrix import r_matrix\n"
        "def solve(a0, a1, a2):\n"
        "    return r_matrix(a0, a1, a2.T)\n"
    )
    violations = shape_codes(source)
    assert codes(violations) == ["RL016"]
    assert violations[0].line == 3


def test_transpose_of_a_transpose_is_clean():
    source = (
        "from repro.qbd.rmatrix import r_matrix\n"
        "def solve(a0, a1, a2):\n"
        "    return r_matrix(a0, a1, a2.T.T)\n"
    )
    assert shape_codes(source) == []


def test_numeric_matmul_mismatch_fires_rl016():
    source = (
        "import numpy as np\n"
        "def bad():\n"
        "    a = np.zeros((3, 4))\n"
        "    b = np.zeros((3, 4))\n"
        "    return a @ b\n"
    )
    assert codes(shape_codes(source)) == ["RL016"]


def test_symbolic_matmul_of_unrelated_dims_is_quiet():
    # 'a' and 'phases' are not canonical dims; at runtime they usually
    # alias ('d1 @ np.ones(phases)'), so no conflict is reported.
    source = (
        "import numpy as np\n"
        "def row_sums(d1, phases):\n"
        "    return d1 @ np.ones(phases)\n"
    )
    assert shape_codes(source) == []


def test_kron_product_dims_conform():
    # kron((m_g,m_g),(ph,ph)) -> (m_g*ph, m_g*ph): multiplying with an
    # (m_g*ph, m_g*ph) block must not report a mismatch.
    source = (
        "import numpy as np\n"
        "def assemble(d1, m_g, a1):\n"
        "    a0 = np.kron(np.eye(m_g), d1)\n"
        "    return a0 @ a1\n"
    )
    assert shape_codes(source) == []


def test_transposed_stack_of_oriented_blocks_enters_kron():
    # A stack of the items' D1 keeps D1's orientation; its .T does not.
    source = (
        "import numpy as np\n"
        "def assemble(arrivals, m_g):\n"
        "    d1 = np.stack([arrival.d1 for arrival in arrivals])\n"
        "    ok = np.kron(np.eye(m_g), d1)\n"
        "    return ok, np.kron(np.eye(m_g), d1.T)\n"
    )
    assert [(v.code, v.line) for v in shape_codes(source)] == [("RL016", 5)]


def test_slicing_and_indexing_transfer():
    # A full slice keeps the symbolic dim; an integer index drops the
    # axis, so q[0] @ q is a (m,) @ (m,m) vector product -- fine.
    source = (
        "def take(a1):\n"
        "    row = a1[0]\n"
        "    return row @ a1\n"
    )
    assert shape_codes(source) == []


def test_stack_reduction_without_axis_fires_rl018():
    source = (
        "import numpy as np\n"
        "def total(a1, a2):\n"
        "    stack = np.stack((a1, a2))\n"
        "    return stack.sum()\n"
    )
    violations = shape_codes(source)
    assert codes(violations) == ["RL018"]
    assert violations[0].line == 4


def test_stack_of_unknown_iterable_stays_unknown_and_quiet():
    # A fact survives only what the transfer functions model: stacking an
    # opaque iterable yields no shape, and unknown never fires a rule.
    source = (
        "import numpy as np\n"
        "def total(blocks):\n"
        "    stack = np.stack(blocks)\n"
        "    return stack.sum()\n"
    )
    assert shape_codes(source) == []


def test_stack_reduction_over_trailing_axes_is_clean():
    source = (
        "import numpy as np\n"
        "def per_item(a1, a2):\n"
        "    stack = np.stack((a1, a2))\n"
        "    return stack.sum(axis=(1, 2))\n"
    )
    assert shape_codes(source) == []


def test_rl018_is_not_applied_under_tests():
    source = (
        "import numpy as np\n"
        "def total(a1, a2):\n"
        "    stack = np.stack((a1, a2))\n"
        "    return stack.sum()\n"
    )
    assert lint_source(source, "tests/qbd/test_batched.py") == []


def test_misaligned_stack_broadcast_fires_rl018():
    # (N,) * (N, m, m) broadcasts along the *trailing* axis at runtime --
    # the per-item weights silently hit the wrong dimension.
    source = (
        "import numpy as np\n"
        "def weight(a1, a2):\n"
        "    stack = np.stack((a1, a2))\n"
        "    weights = np.stack((0.25, 0.75))\n"
        "    return stack * weights\n"
    )
    assert codes(shape_codes(source)) == ["RL018"]


def test_rl019_guarded_scope_is_clean():
    source = (
        "import math\n"
        "def floor_check(solution, floor):\n"
        "    rate = solution.bg_completion_rate\n"
        "    return math.isfinite(rate) and rate >= floor\n"
    )
    assert shape_codes(source) == []


def test_rl019_unguarded_compare_fires():
    source = (
        "def floor_check(solution, floor):\n"
        "    rate = solution.bg_completion_rate\n"
        "    return rate >= floor\n"
    )
    violations = shape_codes(source)
    assert codes(violations) == ["RL019"]
    assert violations[0].line == 3


def test_rl020_narrow_dtype_and_floor_division():
    source = (
        "import numpy as np\n"
        "def shrink(a1, budget_ms):\n"
        "    small = a1.astype(np.float32)\n"
        "    half_ms = budget_ms // 2\n"
        "    return small, half_ms\n"
    )
    assert codes(shape_codes(source)) == ["RL020", "RL020"]


def test_rl020_integer_counts_may_floor_divide():
    source = (
        "def split(total_states, phases):\n"
        "    return total_states // phases\n"
    )
    assert shape_codes(source) == []


# ---------------------------------------------------------------------------
# Injected bugs in the real modules (RL016-RL020)
# ---------------------------------------------------------------------------


def _real_source(rel: str) -> tuple[str, str]:
    path = REPO_ROOT / rel
    return path.read_text(encoding="utf-8"), str(path)


def _line_of(source: str, needle: str) -> int:
    for number, line in enumerate(source.splitlines(), start=1):
        if needle in line:
            return number
    raise AssertionError(f"needle {needle!r} not found")


def test_injected_transposed_boundary_block_is_caught_by_rl016():
    source, path = _real_source("src/repro/qbd/structure.py")
    assert [v for v in lint_source(source, path) if v.code == "RL016"] == []
    mutated = source.replace("b10=a2, a0=a0", "b10=a2.T, a0=a0")
    assert mutated != source
    rl016 = [v for v in lint_source(mutated, path) if v.code == "RL016"]
    assert rl016, "injected a2.T at the QBDProcess constructor not caught"
    assert rl016[0].line == _line_of(mutated, "b10=a2.T")


def test_injected_transposed_kron_operand_is_caught_by_rl016():
    source, path = _real_source("src/repro/core/blocks.py")
    assert [v for v in lint_source(source, path) if v.code == "RL016"] == []
    mutated = source.replace(
        "a0 = np.kron(np.eye(m_g), d1)", "a0 = np.kron(np.eye(m_g), d1.T)"
    )
    assert mutated != source
    rl016 = [v for v in lint_source(mutated, path) if v.code == "RL016"]
    assert rl016, "injected d1.T inside np.kron not caught"
    assert rl016[0].line == _line_of(mutated, "np.kron(np.eye(m_g), d1.T)")


def test_injected_standalone_d0_stationary_is_caught_by_rl017():
    source, path = _real_source("src/repro/processes/map_process.py")
    assert [v for v in lint_source(source, path) if v.code == "RL017"] == []
    mutated = source + (
        "\n\ndef _broken_phase_pi(arrival):\n"
        "    return stationary_distribution(arrival.d0)\n"
    )
    rl017 = [v for v in lint_source(mutated, path) if v.code == "RL017"]
    assert rl017, "injected stationary_distribution(d0) not caught"
    assert rl017[0].line == _line_of(
        mutated, "stationary_distribution(arrival.d0)"
    )


def test_injected_flat_rhs_in_batched_solve_is_caught_by_rl018():
    source, path = _real_source("src/repro/qbd/boundary.py")
    assert [v for v in lint_source(source, path) if v.code == "RL018"] == []
    mutated = source.replace(
        "np.linalg.solve(eye - r, np.ones((n, m, 1)))[..., 0]",
        "np.linalg.solve(eye - r, np.ones((n, m)))",
    )
    assert mutated != source
    rl018 = [v for v in lint_source(mutated, path) if v.code == "RL018"]
    assert rl018, "injected 2-D RHS under a stacked solve not caught"
    assert rl018[0].line == _line_of(mutated, "np.ones((n, m)))")


def test_injected_unguarded_rate_compare_is_caught_by_rl019():
    source, path = _real_source("src/repro/core/metrics.py")
    assert [v for v in lint_source(source, path) if v.code == "RL019"] == []
    mutated = source + (
        "\n\ndef _meets_floor(solution, floor):\n"
        "    rate = solution.bg_completion_rate\n"
        "    return rate >= floor\n"
    )
    rl019 = [v for v in lint_source(mutated, path) if v.code == "RL019"]
    assert rl019, "injected unguarded bg_completion_rate compare not caught"
    assert rl019[0].line == _line_of(mutated, "return rate >= floor")


def test_injected_float32_solve_is_caught_by_rl020():
    source, path = _real_source("src/repro/qbd/rmatrix.py")
    assert [v for v in lint_source(source, path) if v.code == "RL020"] == []
    mutated = source + (
        "\n\ndef _shrink(a1):\n"
        "    return np.asarray(a1, dtype=np.float32)\n"
    )
    rl020 = [v for v in lint_source(mutated, path) if v.code == "RL020"]
    assert rl020, "injected float32 narrowing not caught"
    assert rl020[0].line == _line_of(mutated, "dtype=np.float32")


# ---------------------------------------------------------------------------
# Cross-file wrapper flow (Project._rl016_rl017_shape_flow)
# ---------------------------------------------------------------------------


def test_wrapper_forwarding_d0_into_stationary_fires_rl017(tmp_path):
    write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/solver.py": (
                "def phase_pi(q):\n"
                "    return stationary_distribution(q)\n"
            ),
            "pkg/caller.py": (
                "from pkg.solver import phase_pi\n"
                "def use(d0):\n"
                "    return phase_pi(d0)\n"
            ),
        },
    )
    project = Project([tmp_path / "pkg"], root=tmp_path)
    violations = [v for v in project.lint() if v.code == "RL017"]
    assert violations, "wrapper-forwarded subgenerator not caught"
    assert violations[0].path.endswith("caller.py")
    assert violations[0].line == 3


def test_wrapper_forwarding_transposed_block_fires_rl016(tmp_path):
    write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/solver.py": (
                "from repro.qbd.rmatrix import r_matrix\n"
                "def warm(a0, a1, a2):\n"
                "    return r_matrix(a0, a1, a2)\n"
            ),
            "pkg/caller.py": (
                "from pkg.solver import warm\n"
                "def use(a0, a1, a2):\n"
                "    return warm(a0, a1, a2.T)\n"
            ),
        },
    )
    project = Project([tmp_path / "pkg"], root=tmp_path)
    violations = [v for v in project.lint() if v.code == "RL016"]
    assert violations, "wrapper-forwarded transposed block not caught"
    assert violations[0].path.endswith("caller.py")
    assert violations[0].line == 3


def test_wrapper_with_clean_arguments_is_quiet(tmp_path):
    write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/solver.py": (
                "def phase_pi(q):\n"
                "    return stationary_distribution(q)\n"
            ),
            "pkg/caller.py": (
                "from pkg.solver import phase_pi\n"
                "def use(d0, d1):\n"
                "    return phase_pi(d0 + d1)\n"
            ),
        },
    )
    project = Project([tmp_path / "pkg"], root=tmp_path)
    assert [v for v in project.lint() if v.code in ("RL016", "RL017")] == []
