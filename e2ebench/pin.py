"""Regenerate the pinned oracles in ``pins.json``.

Usage (from the repository root)::

    python3 e2ebench/pin.py puzzles           # serial IDA* of the instance pool
    python3 e2ebench/pin.py isoeff 0-31       # executor="serial" records digests
    python3 e2ebench/pin.py tables 1-31       # paper-table bodies per seed

The pins are oracles computed by a path other than the one the benchmark
times (serial ``ida_star``, the serial grid executor) or, for tables at
seeds other than 0, by this commit's code; seed 0 of ``tables-paper``
is checked against the committed ``results/table*_paper.txt`` instead.
A seed without a pin still gets the ledger and W-conservation checks,
and ``isoeff-grids`` then runs the serial executor live.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: 15-puzzle instances ``scrambled_fifteen_puzzle(scramble, rng=rng)``
#: found by scanning scrambles 50-80 and rng 1-39 with parallel IDA* at
#: P=1024.  Dense: W/P > 2000, kept to W in [2.3e6, 2.75e6] so one dense
#: instance is a similar share of every pass; sparse: W/P < 300, kept to
#: W in [1e5, 2.7e5] so the fill lands close to the node target.
DENSE = [(50, 35), (55, 4), (60, 28), (65, 3), (70, 1), (70, 9), (75, 8),
         (75, 12), (75, 29), (80, 25), (80, 39)]
SPARSE = [(50, 1), (50, 2), (50, 5), (50, 8), (50, 11), (50, 20), (50, 27),
          (50, 29), (55, 3), (55, 5), (55, 8), (55, 9), (55, 20), (60, 2),
          (60, 3), (60, 13), (60, 17), (60, 19), (60, 24), (60, 33), (60, 34),
          (65, 5), (65, 12), (65, 19), (65, 25), (65, 38), (70, 12), (70, 14),
          (70, 20), (70, 22), (70, 29), (75, 7), (75, 13), (75, 22), (75, 33),
          (80, 10), (80, 16), (80, 37)]


def pin_puzzles() -> dict:
    from repro import ida_star, scrambled_fifteen_puzzle

    pool: dict[str, list[dict]] = {"dense": [], "sparse": []}
    for kind, pairs in (("dense", DENSE), ("sparse", SPARSE)):
        for scramble, rng in pairs:
            serial = ida_star(scrambled_fifteen_puzzle(scramble, rng=rng))
            per_pe = serial.total_expanded / workloads.PUZZLE_PES
            if (kind == "dense") != (per_pe > 2000) or (kind == "sparse" and per_pe >= 300):
                raise SystemExit(f"{kind} instance {scramble}/{rng} has W/P={per_pe:.0f}")
            pool[kind].append({"scramble": scramble, "rng": rng,
                               "W": serial.total_expanded, "cost": serial.solution_cost})
            print(kind, pool[kind][-1], flush=True)
    return pool


def pin_isoeff(seeds: list[int]) -> dict:
    out = {}
    for seed in seeds:
        wl = workloads.IsoeffGrids(seed, "full")
        wl.setup()
        try:
            out[str(seed)] = wl.serial_digest()
        finally:
            wl.close()
        print("isoeff", seed, out[str(seed)], flush=True)
    return out


def pin_tables(seeds: list[int]) -> dict:
    out = {}
    for seed in seeds:
        wl = workloads.TablesPaper(seed, "full")
        wl.setup()
        try:
            bodies, _ = wl.run_pass(0).outputs
        finally:
            wl.close()
        out[str(seed)] = workloads.digest(workloads.bodies_key(bodies))
        print("tables", seed, out[str(seed)], flush=True)
    return out


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in ("puzzles", "isoeff", "tables"):
        print(__doc__, file=sys.stderr)
        return 2
    seeds: list[int] = []
    if len(argv) > 1:
        lo, _, hi = argv[1].partition("-")
        seeds = list(range(int(lo), int(hi or lo) + 1))
    pins = json.loads(workloads.PINS.read_text())
    if argv[0] == "puzzles":
        pins["puzzles"] = pin_puzzles()
    elif argv[0] == "isoeff":
        pins["isoeff_serial"].update(pin_isoeff(seeds))
    else:
        pins["tables"].update(pin_tables(seeds))
    workloads.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
