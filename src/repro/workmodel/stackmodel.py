"""Stack-structured synthetic workload (mid-fidelity model).

Each PE holds a DFS stack of *pending subtree sizes*.  Expanding the top
entry consumes its root node and pushes the child subtrees, whose sizes
are drawn by recursive stick-breaking — producing the highly irregular
trees the paper targets.  Donation removes the entry at the **bottom** of
the stack (nearest the root), exactly the 15-puzzle policy of Section 5.

Unlike :class:`~repro.workmodel.divisible.DivisibleWorkload`, splittability
here depends on stack *composition*: a PE whose stack holds one huge
subtree is not busy (cannot split) even though it has lots of work — the
situation that makes D_P fail (Section 6.1, observation 2).

Two storage backends implement the same workload:

- ``backend="list"`` — one :class:`~collections.deque` per PE, expanded
  in a per-PE Python loop.  Simple and transparent: the oracle the test
  suite checks the arena against.  Donation pops the deque's left end in
  O(1) (a plain list's ``pop(0)`` would be O(depth)).
- ``backend="arena"`` — all stacks in one flat int64 array with
  top/bottom pointers (:class:`~repro.workmodel.arena.StackArena`); a
  cycle pops, draws and pushes for every expanding PE in a handful of
  full-width numpy kernels.  This is the paper-scale (P = 8192) path.

The ``sampler`` knob controls how child sizes are drawn:

- ``"pernode"`` (list-backend default) — one RNG call sequence per
  expanded node, the historical stream of this model.
- ``"batched"`` (arena requirement and its only mode) — all expanding
  PEs' draws per cycle flow through one
  :func:`~repro.workmodel.arena.draw_children_batch` call.  Running the
  list backend with ``sampler="batched"`` consumes the *same* stream as
  the arena, making the two backends bit-identical seed for seed — the
  equivalence the integration suite asserts scheme by scheme.

Busy/idle/expanding masks derive from one cached per-PE entry count,
invalidated on every mutation, so a scheduler cycle that reads all three
masks (trigger, sanitizer, matcher) pays for a single counts pass.  Code
that mutates ``stacks`` directly (tests, notebooks) must call
:meth:`StackWorkload.invalidate_masks` before re-reading masks.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.kernels.dispatch import check_backend, get_kernel
from repro.kernels.workspace import KernelWorkspace
from repro.obs.profile import span
from repro.util.rng import as_generator
from repro.util.validation import check_positive_int
from repro.workmodel.arena import StackArena, draw_children_batch

__all__ = ["StackWorkload"]


class StackWorkload:
    """Per-PE stacks of pending subtree sizes with stick-breaking growth.

    Parameters
    ----------
    total_work:
        ``W`` — total nodes in the synthetic tree.
    n_pes:
        ``P``.
    max_branching:
        Maximum children per expanded node.
    leaf_probability:
        Chance that an expansion of a subtree yields a single child chain
        step instead of a fan-out — raises depth/irregularity.
    rng:
        Seed or generator.
    backend:
        ``"list"`` (deque-per-PE oracle) or ``"arena"`` (flat-array,
        vectorized).
    sampler:
        ``"pernode"`` or ``"batched"``; defaults to the backend's native
        mode (list -> pernode, arena -> batched).  The arena backend only
        supports ``"batched"``.
    kernel_backend:
        Expand-cycle kernel tier for the arena backend — ``"numpy"``
        (reference, default) or ``"fused"`` (zero-allocation workspace
        path).  The list backend is the oracle and only accepts
        ``"numpy"``.
    workspace:
        Optional shared :class:`~repro.kernels.KernelWorkspace`; one is
        created per workload when a non-numpy tier needs it.
    """

    def __init__(
        self,
        total_work: int,
        n_pes: int,
        *,
        max_branching: int = 4,
        leaf_probability: float = 0.0,
        rng: int | np.random.Generator | None = None,
        backend: str = "list",
        sampler: str | None = None,
        kernel_backend: str = "numpy",
        workspace: KernelWorkspace | None = None,
    ) -> None:
        self.total_work = check_positive_int(total_work, "total_work")
        self.n_pes = check_positive_int(n_pes, "n_pes")
        self.max_branching = check_positive_int(max_branching, "max_branching")
        if not 0.0 <= leaf_probability < 1.0:
            raise ValueError(
                f"leaf_probability must be in [0, 1), got {leaf_probability}"
            )
        self.leaf_probability = leaf_probability
        self.rng = as_generator(rng)
        if backend not in ("list", "arena"):
            raise ValueError(f"backend must be 'list' or 'arena', got {backend!r}")
        if sampler is None:
            sampler = "batched" if backend == "arena" else "pernode"
        if sampler not in ("pernode", "batched"):
            raise ValueError(
                f"sampler must be 'pernode' or 'batched', got {sampler!r}"
            )
        if backend == "arena" and sampler != "batched":
            raise ValueError("the arena backend only supports sampler='batched'")
        self.backend = backend
        self.sampler = sampler
        resolved = check_backend(kernel_backend)
        if backend == "list" and resolved != "numpy":
            raise ValueError(
                "the list backend is the oracle tier and only accepts "
                f"kernel_backend='numpy', got {kernel_backend!r}"
            )
        self.kernel_backend = resolved
        if workspace is None and resolved != "numpy":
            workspace = KernelWorkspace()
        self._kernel_ws = workspace

        self._arena: StackArena | None = None
        self._stacks: list[deque[int]] | None = None
        self._expand_kernel = None
        if backend == "arena":
            self._arena = StackArena(n_pes)
            self._arena.workspace = self._kernel_ws
            self._arena.push_root(0, total_work)
            self._expand_kernel = get_kernel("stack.expand_cycle", resolved)
        else:
            # stacks[p] holds PE p's pending subtree sizes; the root
            # subtree (the whole tree) starts on PE 0.
            self._stacks = [deque() for _ in range(n_pes)]
            self._stacks[0].append(total_work)
        self._expanded = 0
        self._cached_counts: np.ndarray | None = None

    # -- storage views -----------------------------------------------------

    @property
    def stacks(self) -> list:
        """The per-PE stacks.

        List backend: the live list of deques (mutable in place — call
        :meth:`invalidate_masks` after direct edits).  Arena backend: a
        plain-list *snapshot* materialized from the flat array; mutating
        it does not touch the arena.
        """
        if self._stacks is not None:
            return self._stacks
        assert self._arena is not None
        return self._arena.to_lists()

    def invalidate_masks(self) -> None:
        """Drop the cached per-PE counts after direct stack mutation."""
        self._cached_counts = None

    # -- tree growth -------------------------------------------------------

    def _children_of(self, size: int) -> list[int]:
        """Partition ``size - 1`` remaining nodes into child subtrees
        (the per-node sampler; one RNG call sequence per expansion)."""
        rest = size - 1
        if rest <= 0:
            return []
        if self.leaf_probability and self.rng.random() < self.leaf_probability:
            return [rest]
        b = int(self.rng.integers(1, self.max_branching + 1))
        b = min(b, rest)
        if b == 1:
            return [rest]
        weights = self.rng.dirichlet(np.ones(b))
        parts = self.rng.multinomial(rest, weights)
        return [int(c) for c in parts if c > 0]

    # -- Workload protocol ------------------------------------------------

    def _counts(self) -> np.ndarray:
        """Per-PE pending-entry counts, cached until the next mutation."""
        if self._cached_counts is None:
            if self._arena is not None:
                self._cached_counts = self._arena.counts()
            else:
                assert self._stacks is not None
                self._cached_counts = np.fromiter(
                    (len(s) for s in self._stacks), dtype=np.int64, count=self.n_pes
                )
        return self._cached_counts

    def expanding_mask(self) -> np.ndarray:
        return self._counts() > 0

    def busy_mask(self) -> np.ndarray:
        """Busy = at least two stack nodes (Section 2): one to keep
        expanding, one to give away."""
        return self._counts() >= 2

    def idle_mask(self) -> np.ndarray:
        return self._counts() == 0

    def expand_cycle(self) -> int:
        if self._arena is not None:
            return self._expand_cycle_arena()
        return self._expand_cycle_list()

    def _expand_cycle_arena(self) -> int:
        with span("expand.stack.arena"):
            return self._expand_cycle_arena_inner()

    def _expand_cycle_arena_inner(self) -> int:  # repro: kernel
        # The cycle body lives in repro.kernels.stack; the registry
        # resolved the tier once at construction.  Every tier does its
        # own pes selection, count-cache invalidation and bookkeeping
        # against this workload, so the wrapper is a plain delegation.
        return self._expand_kernel(self, self._kernel_ws)

    def _expand_cycle_list(self) -> int:
        with span("expand.stack.list"):
            return self._expand_cycle_list_inner()

    def _expand_cycle_list_inner(self) -> int:
        stacks = self._stacks
        assert stacks is not None
        self._cached_counts = None
        if self.sampler == "pernode":
            n = 0
            for stack in stacks:
                if not stack:
                    continue
                size = stack.pop()
                self._expanded += 1
                n += 1
                stack.extend(self._children_of(size))
            return n
        pes = [p for p, stack in enumerate(stacks) if stack]
        if not pes:
            return 0
        sizes = np.fromiter(
            (stacks[p].pop() for p in pes), dtype=np.int64, count=len(pes)
        )
        self._expanded += len(pes)
        lens, flat = draw_children_batch(
            self.rng, sizes, self.max_branching, self.leaf_probability
        )
        children = flat.tolist()
        offset = 0
        for p, ln in zip(pes, lens.tolist()):
            if ln:
                stacks[p].extend(children[offset : offset + ln])
                offset += ln
        return len(pes)

    def transfer(self, donors: np.ndarray, receivers: np.ndarray) -> int:
        donors = np.asarray(donors, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if donors.shape != receivers.shape:
            raise ValueError("donors and receivers must pair one-to-one")
        if len(donors) == 0:
            return 0
        self._cached_counts = None
        if self._arena is not None:
            counts = self._arena.counts()
            valid = (counts[donors] >= 2) & (counts[receivers] == 0)
            donors = donors[valid]
            receivers = receivers[valid]
            if len(donors):
                self._arena.donate_bottoms(donors, receivers)
            return int(len(donors))
        stacks = self._stacks
        assert stacks is not None
        moved = 0
        for d, r in zip(donors.tolist(), receivers.tolist()):
            stack = stacks[d]
            if len(stack) < 2 or stacks[r]:
                continue
            # Donate the node at the bottom of the stack (nearest the root
            # — typically the largest pending subtree).
            stacks[r].append(stack.popleft())
            moved += 1
        return moved

    def done(self) -> bool:
        return self._expanded >= self.total_work

    def total_expanded(self) -> int:
        return self._expanded

    def extract_pe(self, pe: int) -> tuple[tuple[int, ...], int]:
        """Quarantine PE ``pe``'s whole stack (bottom -> top order).

        Returns an immutable, backend-neutral snapshot so a frontier
        extracted under one backend injects identically under the other.
        """
        self._cached_counts = None
        if self._arena is not None:
            values = tuple(int(v) for v in self._arena.extract_window(pe))
        else:
            assert self._stacks is not None
            values = tuple(self._stacks[pe])
            self._stacks[pe].clear()
        return values, len(values)

    def inject_pe(self, pe: int, payload: tuple[int, ...]) -> int:
        """Append a quarantined stack snapshot onto PE ``pe``."""
        values = tuple(payload)
        if not values:
            return 0
        self._cached_counts = None
        if self._arena is not None:
            return self._arena.inject_window(
                pe, np.asarray(values, dtype=np.int64)
            )
        assert self._stacks is not None
        self._stacks[pe].extend(values)
        return len(values)

    # -- Introspection -----------------------------------------------------

    def total_remaining(self) -> int:
        if self._arena is not None:
            return self._arena.total_pending()
        assert self._stacks is not None
        return sum(sum(s) for s in self._stacks)

    def check_conservation(self) -> bool:
        """Expanded + pending subtree sizes == W at all times."""
        return self._expanded + self.total_remaining() == self.total_work
