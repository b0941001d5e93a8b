"""Parallel Knight's Tour search (paper §4.4).

"Knight's Tour problem is also a search problem whose task is to find the
route which a knight passes all [squares] on the surface of an N×N chess
board only once."  The paper varies the **computation granularity** — the
number of jobs the search is divided into — and observes that a middling
job count is most efficient, the largest count is least efficient
(communication frequency + Ethernet collisions), and the smallest count
cannot use the processors at all.

We reproduce exactly that: the search tree is split at a prefix depth into
``n_jobs`` (or slightly more) independent subtree jobs; each job's *real*
node count and tour count come from actually running the backtracking
search.  It runs once per board and start square (cached): a job's counts
depend only on its last square and visited set, so one search records them
for every state down to half the board's squares, and every job count's
prefixes are lookups.  Processors then take their jobs from a central work
table, and the simulated cost per job is its measured node count times the
per-node work.

The sequential reference counts all complete tours from a fixed start
square; the parallel result must match it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from ..dse.api import ParallelAPI
from ..errors import ApplicationError
from ..hardware.cpu import Work
from ..sim.core import Event

__all__ = [
    "knight_moves",
    "count_tours_seq",
    "TourJob",
    "KnightsTourWorkload",
    "knights_tour_workload",
    "knights_tour_worker",
    "NODE_WORK",
    "DEFAULT_BOARD",
    "DEFAULT_START",
]

#: the paper's board (reconstruction): 5×5, start in the corner
DEFAULT_BOARD = 5
DEFAULT_START = 0

#: charged cost of one search node (move iteration + visited bookkeeping);
#: the board is cache-resident, so pure integer work — a few microseconds
#: per node on the Table-1 CPUs
NODE_WORK = Work(iops=450.0)

#: words per job-descriptor slot in the central work table
JOB_STRIDE = 28

_KNIGHT_DELTAS = ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))


@lru_cache(maxsize=None)
def knight_moves(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Per-square tuples of knight-move destinations on an n×n board."""
    if n < 3:
        raise ApplicationError(f"board must be at least 3x3, got {n}")
    moves = []
    for sq in range(n * n):
        r, c = divmod(sq, n)
        dests = []
        for dr, dc in _KNIGHT_DELTAS:
            rr, cc = r + dr, c + dc
            if 0 <= rr < n and 0 <= cc < n:
                dests.append(rr * n + cc)
        moves.append(tuple(dests))
    return tuple(moves)


def _census(n: int, start: int, depth: int) -> Dict[int, Tuple[int, int]]:
    """Run the backtracking search from ``start`` once, counting as it goes.

    A subtree's ``(nodes, tours)`` depend only on its state: the last square
    and the set of visited squares.  The result maps every state reached
    with at most ``depth`` squares placed, keyed ``free * n * n + last``
    (``free``: bit mask of the unvisited squares), to the node and tour
    counts of its subtree.  A node is one call of the search: a square
    placed, whether or not it extends to a tour.
    """
    total = n * n
    reach = tuple(sum(1 << d for d in dests) for dests in knight_moves(n))
    counts: Dict[int, Tuple[int, int]] = {}
    tours = 0

    def dfs(square: int, free: int, placed: int) -> int:
        nonlocal tours
        before = tours
        nodes = 1
        if free:
            options = reach[square] & free
            while options:
                bit = options & -options
                options ^= bit
                nodes += dfs(bit.bit_length() - 1, free ^ bit, placed + 1)
        else:
            tours += 1
        if placed <= depth:
            counts[free * total + square] = (nodes, tours - before)
        return nodes

    dfs(start, ((1 << total) - 1) ^ (1 << start), 1)
    return counts


#: (board, start) -> (depth, census) of the deepest census built so far
_CENSUSES: Dict[Tuple[int, int], Tuple[int, Dict[int, Tuple[int, int]]]] = {}


def _subtree_counts(
    n: int, start: int, prefixes: List[Tuple[int, ...]]
) -> List[Tuple[int, int]]:
    """``(nodes, tours)`` of the subtree below each prefix from ``start``.

    One census per ``(board, start)`` answers every prefix of up to half
    the board's squares; a deeper prefix rebuilds it at that depth.
    """
    depth = max([n * n // 2] + [len(p) for p in prefixes])
    built = _CENSUSES.get((n, start))
    if built is None or built[0] < depth:
        built = _CENSUSES[(n, start)] = (depth, _census(n, start, depth))
    counts = built[1]
    full = (1 << (n * n)) - 1
    out = []
    for prefix in prefixes:
        free = full
        for sq in prefix:
            free ^= 1 << sq
        out.append(counts[free * n * n + prefix[-1]])
    return out


def count_tours_seq(n: int = DEFAULT_BOARD, start: int = DEFAULT_START) -> Tuple[int, int]:
    """Sequential reference: (number of complete tours, nodes visited)."""
    ((nodes, tours),) = _subtree_counts(n, start, [(start,)])
    return tours, nodes


@dataclass(frozen=True)
class TourJob:
    """One subtree job: a path prefix with its measured cost and yield."""

    prefix: Tuple[int, ...]
    nodes: int
    tours: int


@dataclass(frozen=True)
class KnightsTourWorkload:
    """A pre-expanded job pool: the tour prefixes handed out to workers."""

    board: int
    start: int
    n_jobs_requested: int
    jobs: Tuple[TourJob, ...]
    total_tours: int
    total_nodes: int


@lru_cache(maxsize=None)
def knights_tour_workload(
    n_jobs: int, board: int = DEFAULT_BOARD, start: int = DEFAULT_START
) -> KnightsTourWorkload:
    """Split the search into >= ``n_jobs`` prefix jobs and measure each.

    Prefixes are grown breadth-first from the start square until the
    frontier is at least ``n_jobs`` wide (dead prefixes are kept: a real
    work-splitting implementation cannot tell them apart in advance, and
    they are exactly the near-empty jobs that make high job counts pay pure
    communication cost).
    """
    if n_jobs < 1:
        raise ApplicationError(f"n_jobs must be >= 1, got {n_jobs}")
    moves = knight_moves(board)
    frontier: List[Tuple[int, ...]] = [(start,)]
    while len(frontier) < n_jobs and any(len(p) < board * board for p in frontier):
        nxt: List[Tuple[int, ...]] = []
        for path in frontier:
            last = path[-1]
            children = [m for m in moves[last] if m not in path]
            if not children:
                nxt.append(path)  # dead or complete prefix stays a job
            else:
                nxt.extend(path + (m,) for m in children)
        if len(nxt) == len(frontier):
            break
        frontier = nxt

    jobs = [
        TourJob(prefix=path, nodes=nodes, tours=tours)
        for path, (nodes, tours) in zip(frontier, _subtree_counts(board, start, frontier))
    ]
    return KnightsTourWorkload(
        board=board,
        start=start,
        n_jobs_requested=n_jobs,
        jobs=tuple(jobs),
        total_tours=sum(j.tours for j in jobs),
        total_nodes=sum(j.nodes for j in jobs),
    )


def knights_tour_worker(
    api: ParallelAPI,
    n_jobs: int,
    board: int = DEFAULT_BOARD,
    start: int = DEFAULT_START,
) -> Generator[Event, Any, Dict[str, Any]]:
    """DSE-parallel Knight's Tour (run under ``run_parallel``).

    The paper varies "the number of divisions in the problem": the search
    is divided *statically* — job *j* is processed by rank ``j % size``.
    The master keeps a central work table in its global-memory slice; each
    processor fetches every job descriptor it owns (one read), searches the
    subtree, and writes the tour count back (one write).  Many divisions
    therefore mean proportionally many messages converging on the master's
    node — the communication-frequency/collision effect of Figures 19-21 —
    while too few divisions cannot occupy the processors.
    """
    workload = knights_tour_workload(n_jobs, board, start)
    njobs = len(workload.jobs)
    table = 0  # central work table, homed at kernel 0
    results = table + njobs * JOB_STRIDE

    if api.rank == 0:
        # Publish the work table: [prefix length, squares...] per slot.
        slots = np.zeros(njobs * JOB_STRIDE)
        for j, job in enumerate(workload.jobs):
            if len(job.prefix) + 1 > JOB_STRIDE:
                raise ApplicationError(
                    f"prefix of {len(job.prefix)} squares overflows job slot"
                )
            slots[j * JOB_STRIDE] = len(job.prefix)
            for i, sq in enumerate(job.prefix):
                slots[j * JOB_STRIDE + 1 + i] = float(sq)
        yield from api.gm_write(table, slots)
        yield from api.gm_write(results, np.zeros(njobs))
    yield from api.barrier("kt:init")
    t0 = api.now

    mine: List[int] = []
    for j in range(api.rank, njobs, api.size):
        desc = yield from api.gm_read(table + j * JOB_STRIDE, JOB_STRIDE)
        plen = int(desc[0])
        prefix = tuple(int(v) for v in desc[1 : 1 + plen])
        job = workload.jobs[j]
        if prefix != job.prefix:
            raise ApplicationError(f"work table corrupted for job {j}")
        yield from api.compute(NODE_WORK.scaled(job.nodes))
        yield from api.gm_write_scalar(results + j, float(job.tours))
        mine.append(j)
    yield from api.barrier("kt:done")
    t1 = api.now

    result: Dict[str, Any] = {"jobs_done": len(mine), "t0": t0, "t1": t1}
    if api.rank == 0:
        tours = yield from api.gm_read(results, njobs)
        result["tours"] = int(tours.sum())
        result["expected_tours"] = workload.total_tours
        result["n_jobs_actual"] = njobs
    return result
