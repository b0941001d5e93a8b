"""Differential tests of the apps' host-side search kernels.

The Othello bitboard core, the Knight's Tour census and the shared
Gauss-Seidel system must give exactly what the straightforward versions
give: the simulated CPU time is charged from these node counts, so any
difference would change the paper figures.  The references below are the
earlier implementations: a ray-scan Othello on tuple boards and a plain
backtracking tour search per prefix.
"""

import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import gauss_seidel, knights_tour, othello
from repro.apps.othello import (
    BLACK,
    EMPTY,
    INF,
    alphabeta,
    apply_move,
    evaluate,
    initial_board,
    legal_moves,
    midgame_board,
    othello_workload,
)
from repro.errors import ApplicationError


# ------------------------------------------------ Othello: ray-scan reference
def _ref_rays():
    rays = []
    for sq in range(64):
        r, c = divmod(sq, 8)
        sq_rays = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                ray = []
                rr, cc = r + dr, c + dc
                while 0 <= rr < 8 and 0 <= cc < 8:
                    ray.append(rr * 8 + cc)
                    rr += dr
                    cc += dc
                if len(ray) >= 2:
                    sq_rays.append(tuple(ray))
        rays.append(sq_rays)
    return rays


REF_RAYS = _ref_rays()


def ref_flips(board, square, player):
    if board[square] != EMPTY:
        return []
    opponent = -player
    flips = []
    for ray in REF_RAYS[square]:
        if board[ray[0]] != opponent:
            continue
        run = [ray[0]]
        for pos in ray[1:]:
            v = board[pos]
            if v == opponent:
                run.append(pos)
            elif v == player:
                flips.extend(run)
                break
            else:
                break
    return flips


def ref_legal_moves(board, player):
    return [sq for sq in range(64) if board[sq] == EMPTY and ref_flips(board, sq, player)]


def ref_apply_move(board, square, player):
    flips = ref_flips(board, square, player)
    assert flips, "reference asked to play an illegal move"
    new = list(board)
    new[square] = player
    for f in flips:
        new[f] = player
    return tuple(new)


def ref_evaluate(board, player):
    material = sum(board) * player
    mobility = len(ref_legal_moves(board, player)) - len(ref_legal_moves(board, -player))
    corners = sum(player * board[c] for c in (0, 7, 56, 63))
    return material + 4 * mobility + 25 * corners


def ref_alphabeta(board, player, depth):
    nodes = 0

    def search(board, player, depth, alpha, beta, passed=False):
        nonlocal nodes
        nodes += 1
        if depth == 0:
            return ref_evaluate(board, player)
        moves = ref_legal_moves(board, player)
        if not moves:
            if passed:
                return 1000 * sum(board) * player
            return -search(board, -player, depth - 1, -beta, -alpha, True)
        value = -INF
        for move in moves:
            child = ref_apply_move(board, move, player)
            value = max(value, -search(child, -player, depth - 1, -beta, -alpha))
            alpha = max(alpha, value)
            if alpha >= beta:
                break
        return value

    value = search(board, player, depth, -INF, INF)
    return value, nodes


def ref_midgame_board():
    board, player = initial_board(), BLACK
    for _ in range(8):
        moves = ref_legal_moves(board, player)
        if moves:
            best = max(moves, key=lambda m: (len(ref_flips(board, m, player)), -m))
            board = ref_apply_move(board, best, player)
        player = -player
    return board


def ref_jobs(depth):
    """(move1, move2, value, nodes) of every job, as the tuple code built them."""
    board, player = ref_midgame_board(), BLACK
    jobs = []
    for m1 in ref_legal_moves(board, player):
        child1 = ref_apply_move(board, m1, player)
        if depth < 2:
            jobs.append((m1, -1, ref_evaluate(child1, player), 1))
            continue
        replies = ref_legal_moves(child1, -player)
        if not replies:
            value, nodes = ref_alphabeta(child1, -player, depth - 1)
            jobs.append((m1, -1, -value, nodes + 1))
            continue
        for m2 in replies:
            value, nodes = ref_alphabeta(ref_apply_move(child1, m2, -player), player, depth - 2)
            jobs.append((m1, m2, value, nodes + 1))
    return jobs


def playout(seed, plies):
    """A reachable position after up to ``plies`` random plies (passes
    included); ``plies`` >= 60 usually plays the game to its end."""
    rng = random.Random(seed)
    board, player = initial_board(), BLACK
    for _ in range(plies):
        moves = ref_legal_moves(board, player)
        if not moves:
            player = -player
            moves = ref_legal_moves(board, player)
            if not moves:
                break
        board = ref_apply_move(board, rng.choice(moves), player)
        player = -player
    return board, player


# ------------------------------------------------ Othello: differential tests
def _assert_rules_match(board, player):
    own, opp = othello._bits(board, player)
    for sq in range(64):
        expected = sum(1 << f for f in ref_flips(board, sq, player))
        got = othello._flips(own, opp, sq) if board[sq] == EMPTY else 0
        assert got == expected, f"flips at {sq}"
    moves = legal_moves(board, player)
    assert moves == ref_legal_moves(board, player)
    for move in moves:
        assert apply_move(board, move, player) == ref_apply_move(board, move, player)
    assert evaluate(board, player) == ref_evaluate(board, player)


@given(seed=st.integers(0, 10_000), plies=st.integers(0, 70))
@settings(max_examples=120, deadline=None)
def test_bitboard_rules_match_ray_scan(seed, plies):
    board, player = playout(seed, plies)
    _assert_rules_match(board, player)
    _assert_rules_match(board, -player)


def test_rules_match_on_pass_and_full_boards():
    """Positions where one side must pass and final positions (usually a
    full board) occur in real games; both rule sets must agree there too."""
    passes = full = 0
    for seed in range(200):
        rng = random.Random(seed)
        board, player = initial_board(), BLACK
        while True:
            moves = ref_legal_moves(board, player)
            if not moves:
                if not ref_legal_moves(board, -player):
                    break  # game over
                passes += 1
                _assert_rules_match(board, player)
                player = -player
                continue
            board = ref_apply_move(board, rng.choice(moves), player)
            player = -player
        full += EMPTY not in board
        _assert_rules_match(board, player)
        _assert_rules_match(board, -player)
        if passes >= 5 and full >= 5:
            break
    assert passes >= 5 and full >= 5


def test_illegal_moves_rejected_like_the_reference():
    board = midgame_board()
    for sq in range(64):
        if ref_flips(board, sq, BLACK):
            continue
        with pytest.raises(ApplicationError):
            apply_move(board, sq, BLACK)


@given(seed=st.integers(0, 10_000), plies=st.integers(0, 64), depth=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_alphabeta_matches_reference_on_drawn_positions(seed, plies, depth):
    board, player = playout(seed, plies)
    assert alphabeta(board, player, depth) == ref_alphabeta(board, player, depth)


def test_midgame_board_matches_reference():
    assert midgame_board() == ref_midgame_board()


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_alphabeta_and_jobs_match_reference(depth):
    board = midgame_board()
    assert alphabeta(board, BLACK, depth) == ref_alphabeta(board, BLACK, depth)
    jobs = [astuple(job) for job in othello_workload(depth).jobs]
    assert jobs == ref_jobs(depth)


# ------------------------------------------------ Knight's Tour: census
class RefSearch:
    """The plain backtracking search, run once per prefix."""

    def __init__(self, n):
        self.moves = knights_tour.knight_moves(n)
        self.total = n * n
        self.visited = [False] * self.total
        self.nodes = 0
        self.tours = 0

    def run_from(self, path):
        for sq in path:
            self.visited[sq] = True
        self._dfs(path[-1], len(path))
        for sq in path:
            self.visited[sq] = False

    def _dfs(self, square, placed):
        self.nodes += 1
        if placed == self.total:
            self.tours += 1
            return
        for nxt in self.moves[square]:
            if not self.visited[nxt]:
                self.visited[nxt] = True
                self._dfs(nxt, placed + 1)
                self.visited[nxt] = False


def ref_counts(board, prefix):
    search = RefSearch(board)
    search.run_from(prefix)
    return search.nodes, search.tours


@pytest.mark.parametrize("board", [4, 5])
@pytest.mark.parametrize("start", [0, 1, 12])
@pytest.mark.parametrize("n_jobs", [1, 8, 32, 512])
def test_census_counts_match_reference_search(board, start, n_jobs):
    workload = knights_tour.knights_tour_workload(n_jobs, board, start)
    for job in workload.jobs:
        assert (job.nodes, job.tours) == ref_counts(board, job.prefix), job.prefix
    assert (workload.total_tours, workload.total_nodes) == (
        sum(j.tours for j in workload.jobs),
        sum(j.nodes for j in workload.jobs),
    )


def test_frontier_deeper_than_census_rebuilds_it():
    """A frontier deeper than half the board rebuilds the census at that
    depth and still gets the reference counts."""
    board, start = 4, 0
    knights_tour._CENSUSES.pop((board, start), None)
    knights_tour.count_tours_seq(board, start)
    assert knights_tour._CENSUSES[(board, start)][0] == board * board // 2
    workload = knights_tour.knights_tour_workload(100_000, board, start)
    deepest = max(len(job.prefix) for job in workload.jobs)
    assert deepest > board * board // 2
    assert knights_tour._CENSUSES[(board, start)][0] == deepest
    for job in workload.jobs:
        assert (job.nodes, job.tours) == ref_counts(board, job.prefix), job.prefix


def test_count_tours_seq_matches_reference_search():
    for board, start in ((4, 0), (5, 0), (5, 12)):
        nodes, tours = ref_counts(board, (start,))
        assert knights_tour.count_tours_seq(board, start) == (tours, nodes)


# ------------------------------------------------ Gauss-Seidel: one system
def test_shared_system_is_read_only_and_equals_make_system():
    a, b = gauss_seidel._shared_system(60, 7)
    a_ref, b_ref = gauss_seidel.make_system(60, 7)
    assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
    assert not a.flags.writeable and not b.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 0.0
    assert gauss_seidel._shared_system(60, 7)[0] is a
    # make_system's other callers still get fresh, writable arrays
    fresh, _ = gauss_seidel.make_system(60, 7)
    assert fresh.flags.writeable and fresh is not a_ref
