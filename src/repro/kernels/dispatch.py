"""Tier registry and dispatch for the kernel layer.

The hot kernels — stack/search ``expand_cycle`` and the mega grid
kernels — are registered here under a ``(name, tier)`` key:

- ``"numpy"`` — the reference tier: the exact code the workloads ran
  before this layer existed, one allocation-happy numpy call per step.
  Every kernel has it; the fused tier is gated bit-identical to it (and
  through it to the list oracle).
- ``"fused"`` — the zero-allocation pure-numpy tier: ``out=``-based
  scans and wheres over a :class:`~repro.kernels.workspace.KernelWorkspace`
  of preallocated scratch, pooled arena growth, and a sparse-frontier
  scalar fast path for nearly-idle cycles.  Only the two expand cycles
  have it — the tiers with a measured win (``docs/performance.md``).

:func:`get_kernel` is an exact lookup: there is no fallback between
tiers, so asking for a tier a kernel does not implement is a
``KeyError``, and asking for a tier that does not exist is a
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable

from repro.errors import ConfigError

__all__ = ["BACKENDS", "check_backend", "register", "get_kernel", "registered_kernels"]

#: Dispatchable tiers: the reference first, then the fast one.
BACKENDS: tuple[str, ...] = ("numpy", "fused")

#: Implementation modules; imported lazily on first lookup so importing
#: ``repro.kernels.dispatch`` alone stays cheap and cycle-free.
_IMPL_MODULES = (
    "repro.kernels.stack",
    "repro.kernels.search",
    "repro.kernels.mega",
)

_REGISTRY: dict[tuple[str, str], Callable] = {}
_LOADED = False


def check_backend(backend: str) -> str:
    """``backend`` itself when it names a tier, else :class:`ConfigError`."""
    if backend not in BACKENDS:
        raise ConfigError(f"kernel backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def register(name: str, backend: str, fn: Callable) -> Callable:
    """Register ``fn`` as kernel ``name``'s ``backend`` tier (idempotent)."""
    if backend not in BACKENDS:
        raise ConfigError(f"cannot register unknown backend {backend!r}")
    _REGISTRY[(name, backend)] = fn
    return fn


def _ensure_loaded() -> None:
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    for mod in _IMPL_MODULES:
        import_module(mod)


def get_kernel(name: str, backend: str) -> Callable:
    """The ``backend`` tier of kernel ``name``.

    Raises :class:`ConfigError` for an unknown tier and ``KeyError`` when
    ``name`` has no implementation at that tier.
    """
    check_backend(backend)
    _ensure_loaded()
    fn = _REGISTRY.get((name, backend))
    if fn is None:
        known = registered_kernels()
        raise KeyError(f"no {backend!r} kernel registered under {name!r} (known: {known})")
    return fn


def registered_kernels() -> dict[str, tuple[str, ...]]:
    """Kernel name -> tuple of tiers implementing it (for docs/tests)."""
    _ensure_loaded()
    out: dict[str, list[str]] = {}
    for kname, backend in sorted(_REGISTRY):
        out.setdefault(kname, []).append(backend)
    return {k: tuple(v) for k, v in out.items()}
