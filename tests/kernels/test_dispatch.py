"""Registry and dispatch semantics of :mod:`repro.kernels.dispatch`.

The dispatch layer's contract is small but load-bearing: two tiers
(``"numpy"`` reference, ``"fused"``), an exact ``(name, tier)`` lookup
with no fallback between tiers, :class:`~repro.errors.ConfigError` for
an unknown tier and ``KeyError`` for a kernel missing at a known one.
"""

import pytest

from repro.errors import ConfigError
from repro.kernels.dispatch import (
    BACKENDS,
    check_backend,
    get_kernel,
    register,
    registered_kernels,
)


class TestResolveBackend:
    def test_tiers(self):
        assert BACKENDS == ("numpy", "fused")

    def test_explicit_tiers_resolve_to_themselves(self):
        assert check_backend("numpy") == "numpy"
        assert check_backend("fused") == "fused"

    def test_unknown_backend_raises_config_error(self):
        for backend in ("cuda", "jit", "auto"):
            with pytest.raises(ConfigError, match="kernel backend"):
                check_backend(backend)
            with pytest.raises(ConfigError, match="kernel backend"):
                get_kernel("stack.expand_cycle", backend)


class TestRegistryLookup:
    def test_every_kernel_has_a_numpy_reference_tier(self):
        kernels = registered_kernels()
        assert kernels  # the implementation modules registered something
        for name, tiers in kernels.items():
            assert "numpy" in tiers, name

    def test_expected_kernel_names_registered(self):
        """The full registry: fused only where BENCH measured a win."""
        assert registered_kernels() == {
            "stack.expand_cycle": ("fused", "numpy"),
            "search.expand_cycle": ("fused", "numpy"),
            "mega.expand_all": ("numpy",),
            "mega.busy_counts": ("numpy",),
            "mega.nonzero_counts": ("numpy",),
            "mega.remaining": ("numpy",),
        }

    def test_numpy_request_never_upgrades(self):
        assert get_kernel("stack.expand_cycle", "numpy") is not get_kernel(
            "stack.expand_cycle", "fused"
        )

    def test_missing_tier_does_not_fall_back(self):
        with pytest.raises(KeyError, match="mega.expand_all"):
            get_kernel("mega.expand_all", "fused")

    def test_unknown_kernel_raises_with_known_names(self):
        with pytest.raises(KeyError, match="stack.expand_cycle"):
            get_kernel("no.such.kernel", "numpy")

    def test_register_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            register("x", "cuda", lambda: None)
