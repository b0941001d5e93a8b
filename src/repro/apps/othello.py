"""Parallel Othello game-tree search (paper §4.3).

"The Othello game is a typical search problem application common in
artificial intelligence research."  We implement the real game (8×8 board,
full flipping rules) and a minimax search with alpha-beta pruning, then
parallelise it the way the paper's speed-up curves imply:

* the first **two** plies of the tree are expanded into independent *jobs*
  (one per ``(move, counter-move)`` pair, plus degenerate cases);
* each job is searched to the remaining depth with a **full window**, so a
  job's cost and value are independent of which processor runs it and in
  which order (deterministic, schedule-independent — and exactly what a
  simple 1999 work-pool implementation did, at the price of losing
  cross-job pruning);
* processors pull jobs from a shared queue in global memory; the master
  recombines values minimax-style.

At shallow depths jobs are tiny and queue traffic dominates (no speed-up —
paper Figures 16–18, depths ≤ 4); at deeper depths each job carries real
search work and the pool scales.

The per-node simulation cost is charged from the *measured* node count of
the real search.  The host runs that search on bitboards: a position is two
64-bit masks (the side to move, its opponent), moves come from a
Kogge-Stone fill, flips from per-square ray masks and the evaluation from
bit counts.  The tuple-board functions (``legal_moves``, ``apply_move``,
``evaluate``, ``alphabeta``) are adapters over the same core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..dse.api import ParallelAPI
from ..errors import ApplicationError
from ..hardware.cpu import Work
from ..sim.core import Event
from .jobqueue import collect_results, init_job_queue, job_queue_layout_words, work_job_queue

__all__ = [
    "initial_board",
    "midgame_board",
    "legal_moves",
    "apply_move",
    "evaluate",
    "alphabeta",
    "best_move_seq",
    "OthelloWorkload",
    "othello_workload",
    "othello_worker",
    "NODE_WORK",
    "BLACK",
    "WHITE",
    "EMPTY",
]

BLACK, WHITE, EMPTY = 1, -1, 0
INF = 10**9

#: charged cost of visiting one search node: legal-move generation over 8
#: rays per candidate square, flip application, and the static evaluation
#: (material + mobility + corners — mobility alone regenerates both sides'
#: move lists).  The board is cache-resident, so the cost is pure integer
#: work; ~10-45 us/node on the Table-1 CPUs, the throughput of a
#: straightforward 1999 C implementation.
NODE_WORK = Work(iops=2600.0)

#: all 64 squares; square ``r * 8 + c`` is bit ``r * 8 + c``
_FULL = (1 << 64) - 1
#: columns b-g: a run moving sideways (shift 1, 7 or 9) may only pass
#: through these, so it never wraps from one row's edge onto the next row
_INNER = 0x7E7E7E7E7E7E7E7E
_CORNERS = (1 << 0) | (1 << 7) | (1 << 56) | (1 << 63)
#: first bit of a second board lane (``_evaluate``).  One direction's fill
#: moves a bit by at most 8 * 9 = 72 places, so the 128 zero bits between
#: the lanes keep them apart.
_LANE = 192
_FULL2 = _FULL | _FULL << _LANE
_INNER2 = _INNER | _INNER << _LANE


def _build_rays() -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """Per square, ``(up, down)``: the bit masks of its rays (8 directions)
    that run towards higher and towards lower square numbers."""
    rays = []
    for sq in range(64):
        r, c = divmod(sq, 8)
        up: List[int] = []
        down: List[int] = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                mask, length = 0, 0
                rr, cc = r + dr, c + dc
                while 0 <= rr < 8 and 0 <= cc < 8:
                    mask |= 1 << (rr * 8 + cc)
                    length += 1
                    rr += dr
                    cc += dc
                if length >= 2:  # need at least opponent+own to flip
                    (up if dr * 8 + dc > 0 else down).append(mask)
        rays.append((tuple(up), tuple(down)))
    return tuple(rays)


_RAYS = _build_rays()


def _fill_moves(own: int, opp: int, full: int, inner_cols: int) -> int:
    """Bit mask of the legal moves of the side owning ``own``.

    Per direction, a Kogge-Stone occluded fill grows runs of ``opp`` discs
    out of ``own``; one more step from a run onto an empty square is a move.
    ``full`` and ``inner_cols`` are ``_FULL`` and ``_INNER`` for one board,
    or their two-lane versions for two boards at once (see ``_evaluate``).
    """
    empty = ~(own | opp) & full
    inner = opp & inner_cols
    moves = 0
    for shift, pro in ((1, inner), (7, inner), (8, opp), (9, inner)):
        s2 = shift * 2
        # p (p4): squares a run can enter two (four) steps at a time
        p = pro & (pro << shift)
        p4 = p & (p << s2)
        # towards higher squares
        gen = own | (pro & (own << shift))
        gen |= p & (gen << s2)
        gen |= p4 & (gen << (s2 + s2))
        moves |= ((gen & pro) << shift) & empty
        # towards lower squares: the same propagators, mirrored
        gen = own | (pro & (own >> shift))
        gen |= (p >> shift) & (gen >> s2)
        gen |= (p4 >> (shift * 3)) & (gen >> (s2 + s2))
        moves |= ((gen & pro) >> shift) & empty
    return moves


def _moves(own: int, opp: int) -> int:
    """Bit mask of the legal moves of the side owning ``own``."""
    return _fill_moves(own, opp, _FULL, _INNER)


def _flips(own: int, opp: int, square: int) -> int:
    """Bit mask of the discs the side owning ``own`` flips by playing the
    empty ``square`` (0 = illegal): along each ray, the ``opp`` run up to
    the first other square, if that square is ``own``."""
    flips = 0
    up, down = _RAYS[square]
    blockers = ~opp
    for ray in up:
        stop = ray & blockers
        first = stop & -stop
        if first & own:
            flips |= ray & (first - 1)
    for ray in down:
        stop = ray & blockers
        if stop:
            first = 1 << (stop.bit_length() - 1)
            if first & own:
                flips |= ray & -(first << 1)
    return flips


def _play(own: int, opp: int, square: int) -> Tuple[int, int]:
    """Play the legal ``square`` for the side owning ``own``; returns the
    new position from the side of the player who moves next."""
    flips = _flips(own, opp, square)
    return opp ^ flips, own | flips | (1 << square)


def _squares(mask: int) -> List[int]:
    """The set bits of ``mask`` as ascending square numbers."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


def _bits(board: Tuple[int, ...], player: int) -> Tuple[int, int]:
    """``(own, opp)`` bit masks of ``board`` from ``player``'s side."""
    own = opp = 0
    for sq, v in enumerate(board):
        if v == player:
            own |= 1 << sq
        elif v == -player:
            opp |= 1 << sq
    return own, opp


def _board(own: int, opp: int, player: int) -> Tuple[int, ...]:
    """The tuple board of ``(own, opp)`` with ``own`` played by ``player``."""
    return tuple(
        player if own >> sq & 1 else -player if opp >> sq & 1 else EMPTY
        for sq in range(64)
    )


def _evaluate(own: int, opp: int) -> int:
    """Material + 4 * mobility + 25 * corners, for the side owning ``own``.

    Mobility needs both sides' moves: one fill computes them, with the
    board from ``own``'s side in bits 0-63 and from ``opp``'s side in the
    lane at ``_LANE``.
    """
    moves = _fill_moves(own | opp << _LANE, opp | own << _LANE, _FULL2, _INNER2)
    return (
        own.bit_count()
        - opp.bit_count()
        + 4 * ((moves & _FULL).bit_count() - (moves >> _LANE).bit_count())
        + 25 * ((own & _CORNERS).bit_count() - (opp & _CORNERS).bit_count())
    )


def initial_board() -> Tuple[int, ...]:
    """The standard Othello starting position."""
    board = [EMPTY] * 64
    board[27], board[36] = WHITE, WHITE
    board[28], board[35] = BLACK, BLACK
    return tuple(board)


def midgame_board() -> Tuple[int, ...]:
    """A fixed, reproducible midgame position (deterministic self-play).

    Experiments search from here so every depth has a bushy tree.
    """
    own, opp = _bits(initial_board(), BLACK)
    player = BLACK
    # 8 plies of greedy self-play (most flips first, lowest index tiebreak).
    for _ in range(8):
        moves = _squares(_moves(own, opp))
        if moves:
            best = max(moves, key=lambda m: (_flips(own, opp, m).bit_count(), -m))
            own, opp = _play(own, opp, best)
        else:
            own, opp = opp, own
        player = -player
    return _board(own, opp, player)


def legal_moves(board: Tuple[int, ...], player: int) -> List[int]:
    """All legal squares for ``player`` (ascending order: deterministic)."""
    return _squares(_moves(*_bits(board, player)))


def apply_move(board: Tuple[int, ...], square: int, player: int) -> Tuple[int, ...]:
    own, opp = _bits(board, player)
    flips = 0 if (own | opp) >> square & 1 else _flips(own, opp, square)
    if not flips:
        raise ApplicationError(f"illegal move {square} for player {player}")
    return _board(own | flips | (1 << square), opp ^ flips, player)


def evaluate(board: Tuple[int, ...], player: int) -> int:
    """Static evaluation from ``player``'s perspective: material +
    mobility + corner control (a standard lightweight 1999-era heuristic)."""
    return _evaluate(*_bits(board, player))


class _Counter:
    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes = 0


def _alphabeta(
    own: int,
    opp: int,
    depth: int,
    alpha: int,
    beta: int,
    counter: _Counter,
    passed: bool = False,
) -> int:
    """Negamax alpha-beta for the side owning ``own``; moves are visited
    in ascending square order (lowest set bit first)."""
    counter.nodes += 1
    if depth == 0:
        return _evaluate(own, opp)
    moves = _moves(own, opp)
    if not moves:
        if passed:  # game over: exact disc difference dominates
            return 1000 * (own.bit_count() - opp.bit_count())
        return -_alphabeta(opp, own, depth - 1, -beta, -alpha, counter, True)
    value = -INF
    while moves:
        bit = moves & -moves
        moves ^= bit
        score = -_alphabeta(
            *_play(own, opp, bit.bit_length() - 1), depth - 1, -beta, -alpha, counter
        )
        if score > value:
            value = score
        if value > alpha:
            alpha = value
        if alpha >= beta:
            break
    return value


def _search(own: int, opp: int, depth: int) -> Tuple[int, int]:
    counter = _Counter()
    value = _alphabeta(own, opp, depth, -INF, INF, counter)
    return value, counter.nodes


def alphabeta(
    board: Tuple[int, ...], player: int, depth: int
) -> Tuple[int, int]:
    """Full-window alpha-beta search; returns (value, nodes visited)."""
    if depth < 0:
        raise ApplicationError(f"depth must be >= 0, got {depth}")
    return _search(*_bits(board, player), depth)


def best_move_seq(
    board: Tuple[int, ...], player: int, depth: int
) -> Tuple[Optional[int], int, int]:
    """Sequential root search with per-move full windows (the policy the
    parallel version also uses, so values match exactly).

    Returns (best move, value, total nodes).
    """
    moves = legal_moves(board, player)
    if not moves:
        return None, evaluate(board, player), 1
    best_move, best_value, total_nodes = None, -INF, 0
    for move in moves:
        child = apply_move(board, move, player)
        value, nodes = alphabeta(child, -player, depth - 1)
        value = -value
        total_nodes += nodes + 1
        if value > best_value:
            best_value, best_move = value, move
    return best_move, best_value, total_nodes


@dataclass(frozen=True)
class _Job:
    """One unit of parallel work: a 2-ply prefix of the root tree."""

    move1: int
    move2: int  # -1 when the job covers move1's whole subtree (depth<2 / pass)
    value: int  # negamax value *for the player to move at the root*
    nodes: int


@dataclass(frozen=True)
class OthelloWorkload:
    """Everything the parallel run needs, computed once from the real game."""

    depth: int
    player: int
    jobs: Tuple[_Job, ...]
    root_moves: Tuple[int, ...]
    best_value: int
    best_move: Optional[int]
    total_nodes: int


@lru_cache(maxsize=None)
def othello_workload(depth: int, use_midgame: bool = True) -> OthelloWorkload:
    """Build the job list for ``depth`` (cached: the real search runs once)."""
    if depth < 1:
        raise ApplicationError(f"search depth must be >= 1, got {depth}")
    board = midgame_board() if use_midgame else initial_board()
    player = BLACK
    own, opp = _bits(board, player)
    moves = _squares(_moves(own, opp))
    jobs: List[_Job] = []
    for m1 in moves:
        # (opp1, own1): the position after m1, opponent to move
        opp1, own1 = _play(own, opp, m1)
        if depth < 2:
            jobs.append(_Job(m1, -1, _evaluate(own1, opp1), 1))
            continue
        replies = _squares(_moves(opp1, own1))
        if not replies:
            value, nodes = _search(opp1, own1, depth - 1)
            jobs.append(_Job(m1, -1, -value, nodes + 1))
            continue
        for m2 in replies:
            value, nodes = _search(*_play(opp1, own1, m2), depth - 2)
            # value is for `player`; job value stored from root perspective
            jobs.append(_Job(m1, m2, value, nodes + 1))
    workload = OthelloWorkload(
        depth=depth,
        player=player,
        jobs=tuple(jobs),
        root_moves=tuple(moves),
        best_value=_combine(jobs, moves),
        best_move=_best_of(jobs, moves),
        total_nodes=sum(j.nodes for j in jobs),
    )
    return workload


def _value_of_move(jobs: List[_Job], m1: int) -> int:
    """Root value of move ``m1``: min over opponent replies."""
    subtree = [j for j in jobs if j.move1 == m1]
    whole = [j for j in subtree if j.move2 == -1]
    if whole:
        return whole[0].value
    return min(j.value for j in subtree)


def _combine(jobs: List[_Job], moves: List[int]) -> int:
    if not moves:
        return 0
    return max(_value_of_move(jobs, m) for m in moves)


def _best_of(jobs: List[_Job], moves: List[int]) -> Optional[int]:
    if not moves:
        return None
    return max(moves, key=lambda m: (_value_of_move(jobs, m), -m))


def othello_worker(
    api: ParallelAPI, depth: int, use_midgame: bool = True
) -> Generator[Event, Any, Dict[str, Any]]:
    """DSE-parallel Othello search (run under ``run_parallel``)."""
    workload = othello_workload(depth, use_midgame)
    njobs = len(workload.jobs)
    base = 0  # queue in kernel 0's slice

    if api.rank == 0:
        yield from init_job_queue(api, base, njobs)
    yield from api.barrier("oth:init")
    t0 = api.now

    jobs_work = [NODE_WORK.scaled(job.nodes) for job in workload.jobs]
    mine = yield from work_job_queue(
        api, base, jobs_work, lambda j: float(workload.jobs[j].value)
    )
    yield from api.barrier("oth:done")
    t1 = api.now

    result: Dict[str, Any] = {"jobs_done": len(mine), "t0": t0, "t1": t1}
    if api.rank == 0:
        values = yield from collect_results(api, base, njobs)
        recombined = [
            _Job(j.move1, j.move2, int(values[i]), j.nodes)
            for i, j in enumerate(workload.jobs)
        ]
        result["value"] = _combine(recombined, list(workload.root_moves))
        result["best_move"] = _best_of(recombined, list(workload.root_moves))
        result["expected_value"] = workload.best_value
    return result
