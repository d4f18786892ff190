"""Seeded inputs of the three workloads.

Every stream is a pure function of the seed: the same seed yields the same
queries, lattice and requests, and the program only ever sees what these
functions generate.  Query *kinds* follow a fixed schedule so that every
seed runs the same mix; the seed draws the continuous parameters, which
makes every generated point distinct.

Descriptions are plain dicts (scenario name, field overrides), turned into
parameter objects by the worker; golden points are mixed in by the worker
at the positions :func:`golden_slot` names (the serve stream places them
itself, so that repeats only ever name points actually sent).
"""

from __future__ import annotations

import random
from itertools import count
from typing import Iterator

#: (scenario, torus pattern, torus side k) of a solved point: the paper's
#: two remote-access patterns at three of Figure 9's machine sizes, the
#: asymmetric ``hotspot`` pattern (multi-class AMVA) and the mesh-of-clusters
#: family.  A fixed design point, shared by ``point`` and ``serve``.
SOLVE_KINDS = (
    ("torus", "geometric", 4),
    ("torus", "geometric", 6),
    ("torus", "geometric", 8),
    ("torus", "uniform", 4),
    ("torus", "uniform", 6),
    ("torus", "uniform", 8),
    ("torus", "hotspot", 4),
    ("hier", None, None),
)

#: (operation, scenario, torus pattern, torus side k) of the point workload;
#: half solves, half tolerance indices, cycled in a seeded order
POINT_KINDS = tuple((op, *kind) for op in ("solve", "tolerance") for kind in SOLVE_KINDS)

#: serve: one request in this many repeats an earlier point.  The share,
#: 1/4, is the duplicate share of the CI serve smoke (64 requests over 48
#: distinct points); nothing in the repository measures how often real
#: callers repeat a point, so it is a fixed design point, not a forecast.
REPEAT_EVERY = 4
#: serve: request ``i`` is a repeat when ``i % REPEAT_EVERY`` is this (even,
#: so never a golden slot)
REPEAT_SLOT = 2
#: serve: a repeat picks one of the connection's last this-many fresh points,
#: far inside the server's LRU, so every repeat is a memory hit
REPEAT_WINDOW = 64
#: serve: the first requests of a connection are never repeats
FIRST_REPEAT = 10

#: golden points take the indices that are 1 modulo this (odd, so never a
#: repeat slot), until the goldens run out
GOLDEN_EVERY = 10


def _rng(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, stream name)."""
    return random.Random(f"{seed}:{stream}")


def torus_overrides(rng: random.Random, pattern: str, k: int) -> dict:
    """A torus point inside the paper's figure ranges: ``n_t`` and
    ``p_remote`` as Figures 4 and 5 sweep them (``n_t`` up to 16 of their
    20), run length 10 or 20 as those two figures."""
    return {
        "k": k,
        "pattern": pattern,
        "num_threads": rng.randint(1, 16),
        "p_remote": rng.uniform(0.05, 0.8),
        "runlength": rng.choice((10.0, 20.0)),
    }


def hier_overrides(rng: random.Random) -> dict:
    """A mesh-of-clusters point with its gateway delay inside the range the
    ``hier`` goldens pin (2 to 80 cycles)."""
    return {
        "num_threads": rng.randint(1, 12),
        "p_remote": rng.uniform(0.05, 0.6),
        "inter_delay": rng.uniform(5.0, 60.0),
    }


def _overrides(rng: random.Random, scen: str, pattern: str | None, k: int | None) -> dict:
    if scen == "hier":
        return hier_overrides(rng)
    return torus_overrides(rng, pattern, k)


def golden_slot(index: int, n_goldens: int) -> int | None:
    """Which golden (if any) replaces the generated item at ``index``."""
    if index % GOLDEN_EVERY == 1 and index // GOLDEN_EVERY < n_goldens:
        return index // GOLDEN_EVERY
    return None


def point_stream(seed: int, stream: str = "timed") -> Iterator[dict]:
    """Endless distinct queries: ``{"op", "scenario", "overrides"}``."""
    rng = _rng(seed, f"point-{stream}")
    while True:
        block = list(POINT_KINDS)
        rng.shuffle(block)
        for op, scen, pattern, k in block:
            yield {
                "op": op,
                "scenario": scen,
                "overrides": _overrides(rng, scen, pattern, k),
            }


def _spread_ints(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """``n`` distinct integers of ``lo..hi``, one from each of ``n`` equal
    runs, so every seed covers the whole range (and does as much work)."""
    values = range(lo, hi + 1)
    return [rng.choice(values[len(values) * i // n:len(values) * (i + 1) // n])
            for i in range(n)]


def _spread_floats(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """``n`` floats, one uniform draw from each of ``n`` equal parts of
    ``[lo, hi)``."""
    width = (hi - lo) / n
    return [rng.uniform(lo + i * width, lo + (i + 1) * width) for i in range(n)]


def lattice(seed: int) -> dict[str, list[dict]]:
    """One figure-style lattice per family: ``{"torus": [...], "hier": [...]}``.

    Torus: an ``n_t x p_remote`` grid (6 x 8) at each of k = 4, 6, 8.
    Hier: an ``n_t x inter_delay`` grid (4 x 4).  Each axis takes one
    seeded value from each equal part of its range, as a figure's axis
    spans its whole range: the seed moves the points, not how much work
    the lattice is.
    """
    rng = _rng(seed, "lattice")
    torus = []
    for k in (4, 6, 8):
        threads = _spread_ints(rng, 1, 16, 6)
        remotes = _spread_floats(rng, 0.05, 0.8, 8)
        torus += [
            {"k": k, "num_threads": nt, "p_remote": pr}
            for nt in threads
            for pr in remotes
        ]
    threads = _spread_ints(rng, 1, 12, 4)
    delays = _spread_floats(rng, 5.0, 60.0, 4)
    hier = [{"num_threads": nt, "inter_delay": d} for nt in threads for d in delays]
    return {"torus": torus, "hier": hier}


def _body(scen: str, overrides: dict) -> dict:
    if scen == "torus":
        return {"point": overrides}
    return {"scenario": scen, "point": overrides}


def serve_stream(
    seed: int, conn: int, stream: str = "timed", goldens: tuple = ()
) -> Iterator[dict]:
    """Endless requests of one connection: ``{"body", "repeat", "golden"}``.

    Request ``i`` repeats an earlier fresh point of the same connection
    when ``i % REPEAT_EVERY == REPEAT_SLOT`` (from :data:`FIRST_REPEAT`
    on), so the repeat share is fixed by construction; every other request
    is a fresh, never-seen point of one of the :data:`SOLVE_KINDS`.  A connection only repeats points it has
    already had answered, so in a closed loop each repeat is a cache hit.
    ``goldens`` are request bodies sent as fresh points at the
    :func:`golden_slot` indices; ``"golden"`` is their index, else None.
    """
    rng = _rng(seed, f"serve-{stream}-{conn}")
    fresh: list[dict] = []
    kinds: list[tuple] = []
    for i in count():
        if i >= FIRST_REPEAT and i % REPEAT_EVERY == REPEAT_SLOT:
            body = rng.choice(fresh[-REPEAT_WINDOW:])
            yield {"body": body, "repeat": True, "golden": None}
            continue
        g = golden_slot(i, len(goldens))
        if g is not None:
            fresh.append(goldens[g])
            yield {"body": goldens[g], "repeat": False, "golden": g}
            continue
        if not kinds:
            kinds = list(SOLVE_KINDS)
            rng.shuffle(kinds)
        scen, pattern, k = kinds.pop()
        body = _body(scen, _overrides(rng, scen, pattern, k))
        fresh.append(body)
        yield {"body": body, "repeat": False, "golden": None}
