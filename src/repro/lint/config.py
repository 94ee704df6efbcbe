"""Lint configuration: the kernel-module registry and ``pyproject.toml``.

``[tool.repro.lint]`` supports:

- ``exclude`` — list of path substrings; matching files are skipped
  entirely (used for the seeded lint fixtures under ``tests/lint``);
- ``kernel_modules`` — extra logical paths (or ``dir/`` prefixes) to
  treat as kernel code for R101-R103, merged with
  :data:`KERNEL_MODULES` and in-file ``# repro: kernel`` pragmas;
- ``severity`` — per-rule overrides, e.g. ``R102 = "warning"``
  (warnings are reported but never fail the run);
- ``per_path`` — rules disabled under a path prefix, e.g.
  ``"repro/baselines/" = ["R102", "R103"]``.

Parsing uses :mod:`tomllib` when available (Python >= 3.11) and falls
back to a minimal TOML-subset reader on 3.10 — enough for the flat
strings/lists/tables this section uses, so the linter needs no
third-party dependency anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["KERNEL_MODULES", "LintConfig", "load_config"]

#: Logical paths whose code is *kernel* by construction: full-width numpy
#: kernels whose discipline the arenas' bit-identity gates depend on.
#: ``# repro: kernel`` pragmas extend this set file-locally (and mark
#: individual functions inside mixed modules like search/parallel.py).
KERNEL_MODULES: frozenset[str] = frozenset(
    {
        "repro/simd/scan.py",
        "repro/simd/reduce.py",
        "repro/simd/router.py",
        "repro/workmodel/arena.py",
        "repro/workmodel/mega.py",
        "repro/search/arena.py",
        # The extracted kernel tier: every dispatchable implementation
        # module is kernel-scoped wholesale.  The support files around
        # them (dispatch.py registry, workspace.py storage) are
        # deliberately NOT — they hold no full-width array code for the
        # dataflow rules to check.
        "repro/kernels/stack.py",
        "repro/kernels/search.py",
        "repro/kernels/mega.py",
    }
)


@dataclass
class LintConfig:
    """Parsed ``[tool.repro.lint]`` settings (defaults when absent)."""

    exclude: list[str] = field(default_factory=list)
    kernel_modules: set[str] = field(default_factory=set)
    severity: dict[str, str] = field(default_factory=dict)
    per_path: dict[str, list[str]] = field(default_factory=dict)

    def all_kernel_modules(self) -> frozenset[str]:
        return KERNEL_MODULES | frozenset(self.kernel_modules)

    def excluded(self, path: Path | str) -> bool:
        posix = Path(path).as_posix()
        return any(pat in posix for pat in self.exclude)

    def disabled_for(self, logical: str) -> set[str]:
        """Rules disabled for a logical path by ``per_path`` prefixes."""
        out: set[str] = set()
        for prefix, rules in self.per_path.items():
            if logical.startswith(prefix):
                out.update(r.upper() for r in rules)
        return out


def _parse_toml(text: str) -> dict:
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python 3.10 fallback
        return _parse_toml_subset(text)
    return tomllib.loads(text)


_SECTION_RE = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_KV_RE = re.compile(r"^\s*(?P<key>[A-Za-z0-9_.\"'-]+)\s*=\s*(?P<value>.+?)\s*$")


def _parse_scalar(raw: str) -> object:
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(tok) for tok in _split_list(inner)]
    if (raw.startswith('"') and raw.endswith('"')) or (
        raw.startswith("'") and raw.endswith("'")
    ):
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def _split_list(inner: str) -> list[str]:
    toks, depth, quote, cur = [], 0, "", []
    for ch in inner:
        if quote:
            cur.append(ch)
            if ch == quote:
                quote = ""
            continue
        if ch in "\"'":
            quote = ch
            cur.append(ch)
        elif ch == "[":
            depth += 1
            cur.append(ch)
        elif ch == "]":
            depth -= 1
            cur.append(ch)
        elif ch == "," and depth == 0:
            toks.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        toks.append("".join(cur))
    return [t.strip() for t in toks if t.strip()]


def _parse_toml_subset(text: str) -> dict:  # pragma: no cover - 3.10 only
    """Flat-section TOML subset: enough for ``[tool.repro.lint]``."""
    root: dict = {}
    section = root
    buffer = ""
    for line in text.splitlines():
        stripped = line.split("#", 1)[0] if '"' not in line else line
        if not stripped.strip():
            continue
        if buffer:
            buffer += " " + stripped.strip()
            if buffer.count("[") > buffer.count("]"):
                continue
            match = _KV_RE.match(buffer)
            buffer = ""
            if match:
                key = match.group("key").strip("\"'")
                section[key] = _parse_scalar(match.group("value"))
            continue
        sec = _SECTION_RE.match(stripped)
        if sec:
            section = root
            for part in sec.group("name").split("."):
                section = section.setdefault(part.strip().strip("\"'"), {})
            continue
        match = _KV_RE.match(stripped)
        if match:
            value = match.group("value")
            if value.count("[") > value.count("]"):
                buffer = stripped.strip()
                continue
            key = match.group("key").strip("\"'")
            section[key] = _parse_scalar(value)
    return root


def load_config(start: Path | str | None = None) -> LintConfig:
    """Load ``[tool.repro.lint]`` from the nearest ``pyproject.toml``.

    Searches ``start`` (default: cwd) and its parents; returns defaults
    when no file or section exists, so the linter runs config-free.
    """
    base = Path(start) if start is not None else Path.cwd()
    if base.is_file() and base.name != "pyproject.toml":
        base = base.parent
    candidates = (
        [base] if base.name == "pyproject.toml"
        else [p / "pyproject.toml" for p in [base, *base.parents]]
    )
    for candidate in candidates:
        if not candidate.is_file():
            continue
        try:
            data = _parse_toml(candidate.read_text(encoding="utf-8"))
        except Exception:
            return LintConfig()
        section = data.get("tool", {}).get("repro", {}).get("lint", {})
        if not isinstance(section, dict):
            return LintConfig()
        return LintConfig(
            exclude=[str(x) for x in section.get("exclude", [])],
            kernel_modules={str(x) for x in section.get("kernel_modules", [])},
            severity={
                str(k).upper(): str(v)
                for k, v in section.get("severity", {}).items()
            },
            per_path={
                str(k): [str(r) for r in v]
                for k, v in section.get("per_path", {}).items()
            },
        )
    return LintConfig()
