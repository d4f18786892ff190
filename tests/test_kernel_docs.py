"""Docs/kernel drift pins: the written story must match the registry.

The kernel selection surface is documented in three places -- the
``repro.configure`` table in docs/API.md, the backend/kernel section of the
README, and THEORY.md §8 -- and the degradation chain (including the
``pool`` rung of pooled batch groups) in docs/RESILIENCE.md.  These tests parse the actual
registry constants back out of the prose so renaming a kernel, adding one,
or reordering the chain fails loudly here instead of silently rotting the
docs.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.queueing import kernels
from repro.queueing.kernels import KERNELS
from repro.resilience.degrade import DEGRADATION_CHAIN
from repro.runner import executor

ROOT = Path(__file__).resolve().parent.parent
API = ROOT / "docs" / "API.md"
README = ROOT / "README.md"
THEORY = ROOT / "docs" / "THEORY.md"
RESILIENCE = ROOT / "docs" / "RESILIENCE.md"


class TestApiTable:
    def test_kernel_row_present_with_env_var(self):
        text = API.read_text(encoding="utf-8")
        row = next(
            (
                line
                for line in text.splitlines()
                if line.startswith("| `kernel` |")
            ),
            None,
        )
        assert row is not None, "docs/API.md lost the `kernel` configure row"
        assert "`REPRO_SOLVE_KERNEL`" in row
        for name in KERNELS:
            assert f"`{name}`" in row, f"kernel {name!r} missing from the row"

    def test_env_var_matches_registry(self):
        # the module-private constant is the single source of the env name
        assert kernels._ENV_VAR == "REPRO_SOLVE_KERNEL"
        assert "REPRO_SOLVE_KERNEL" in API.read_text(encoding="utf-8")


class TestReadme:
    def test_kernel_selection_documented(self):
        text = README.read_text(encoding="utf-8")
        assert "`--kernel`" in text
        assert "REPRO_SOLVE_KERNEL" in text
        for name in KERNELS:
            assert f"`{name}`" in text

    def test_conformance_suite_referenced(self):
        assert (
            "tests/queueing/test_kernel_conformance.py"
            in README.read_text(encoding="utf-8")
        )
        assert (ROOT / "tests/queueing/test_kernel_conformance.py").is_file()

    def test_degradation_chain_in_readme_matches_policy(self):
        text = README.read_text(encoding="utf-8")
        chain = "`" + " → ".join(DEGRADATION_CHAIN) + "`"
        assert chain in text, f"README chain mention != {DEGRADATION_CHAIN}"


class TestTheory:
    def test_section8_names_real_modules(self):
        text = THEORY.read_text(encoding="utf-8")
        assert "repro.queueing.kernels" in text
        for mod in ("soa", "reference", "compiled"):
            assert (
                ROOT / "src" / "repro" / "queueing" / "kernels" / f"{mod}.py"
            ).is_file()
        assert "kernels.reference" in text and "kernels.compiled" in text

    def test_section8_describes_pooled_batch_groups(self):
        text = THEORY.read_text(encoding="utf-8")
        assert "**Pooled batch groups.**" in text
        assert "POOLED_GROUP_MIN_POINTS" in text
        assert f"{executor.POOLED_GROUP_MIN_POINTS:,}" in text
        assert "shared_memory" not in text and "kernels.shm" not in text

    def test_precedence_statement_present(self):
        text = THEORY.read_text(encoding="utf-8")
        assert re.search(
            r"REPRO_SOLVE_KERNEL.*?<.*?configure\(kernel=.*?<.*?kernel=",
            text,
            re.DOTALL,
        ), "THEORY.md lost the kernel-selection precedence statement"


class TestResilienceChain:
    def test_chain_prose_matches_policy(self):
        text = RESILIENCE.read_text(encoding="utf-8")
        chain = "`" + " → ".join(DEGRADATION_CHAIN) + "`"
        assert chain in text, (
            f"docs/RESILIENCE.md chain mention != {DEGRADATION_CHAIN}"
        )


class TestOneFixedPoint:
    def test_section8_describes_one_implementation_and_one_rule(self):
        text = THEORY.read_text(encoding="utf-8")
        assert "**One multi-class implementation.**" in text
        assert "solve_batch([network])[0]" in text
        assert "**One batching rule.**" in text
        assert "Scenario.batch_key(params, method)" in text
        # the scalar loop and its 1e-10 pin are gone
        assert "≤ 1e-10 agreement" not in text
