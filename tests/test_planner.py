"""TSP solvers against brute force, the two planners on hand-traced
fixtures, the oracle scorer, and the benchmark summary."""

import inspect
import itertools
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from vsg import (
    ConfigError,
    Episode,
    EvaluationError,
    OracleScorer,
    held_karp,
    heuristic_tsp,
    make_episodes,
    ranked_route,
    route_length,
    run_benchmark,
    run_coverage,
    run_vsg_planner,
    solve_tsp,
    write_benchmark_csv,
)
from vsg import planner
from vsg.core_graph import MAX_COORDINATE, SceneGraph
from vsg.planner import (
    _DOUBLE_BRIDGE_KICKS,
    EXACT_TSP_LIMIT,
    _double_bridge,
    _extended_distances,
    _local_search,
    _nearest_neighbor_routes,
    _or_opt,
    _or_opt_tables,
    _two_opt,
    _two_opt_bar,
)

from conftest import MAGNITUDES, make_graph, make_node


def brute_force(points, start):
    n = len(points)
    best, best_len = None, np.inf
    for perm in itertools.permutations(range(n)):
        length = route_length(points, start, list(perm))
        if length < best_len - 1e-12:
            best, best_len = list(perm), length
    return best, best_len


def held_karp_loop(points, start):
    """Reference Held-Karp: one Python step per (subset, endpoint) pair.

    The same recurrence and argmin tie rule as `held_karp`, filled in mask
    order, so the vectorized solver must return the identical route.
    """
    n = len(points)
    if n == 0:
        return []
    pts = np.asarray(points, dtype=np.float64)
    d_start = np.linalg.norm(pts - np.asarray(start, dtype=np.float64), axis=1)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    full = 1 << n
    cost = np.full((full, n), np.inf)
    parent = np.full((full, n), -1, dtype=np.int64)
    for j in range(n):
        cost[1 << j, j] = d_start[j]
    for mask in range(1, full):
        members = [j for j in range(n) if mask & (1 << j)]
        if len(members) < 2:
            continue
        for j in members:
            candidates = cost[mask ^ (1 << j)] + dist[:, j]
            candidates[j] = np.inf
            best = int(np.argmin(candidates))
            cost[mask, j] = candidates[best]
            parent[mask, j] = best
    mask = full - 1
    last = int(np.argmin(cost[mask]))
    order = [last]
    while parent[mask, last] >= 0:
        prev = int(parent[mask, last])
        mask ^= 1 << last
        order.append(prev)
        last = prev
    order.reverse()
    return order


def two_opt_loop(dist, order):
    """Reference 2-opt: one Python step per (i, j) candidate.

    Scans i, then j, and applies every improving reversal as soon as it is
    seen, passing over the route until a pass applies none; `_two_opt`
    must apply the same moves in the same order.
    """
    n = len(order)
    s = dist.shape[0] - 1
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            prev = s if i == 0 else order[i - 1]
            for j in range(i + 1, n):
                delta = dist[prev, order[j]] - dist[prev, order[i]]
                if j + 1 < n:
                    nxt = order[j + 1]
                    delta += dist[order[i], nxt] - dist[order[j], nxt]
                if delta < -1e-12:
                    order[i : j + 1] = order[i : j + 1][::-1]
                    improved = True
    return order


def or_opt_loop(dist, order):
    """Reference Or-opt pass: the first improving relocation in (run length,
    i, k, orientation) order, one Python step per candidate."""
    n = len(order)
    s = dist.shape[0] - 1
    for seg in (1, 2, 3):
        if seg > n - 1:
            break
        for i in range(n - seg + 1):
            j = i + seg - 1
            prev = s if i == 0 else order[i - 1]
            gain = dist[prev, order[i]]
            if j + 1 < n:
                nxt = order[j + 1]
                gain += dist[order[j], nxt] - dist[prev, nxt]
            rest = order[:i] + order[j + 1 :]
            segment = order[i : j + 1]
            for k in range(len(rest) + 1):
                a = s if k == 0 else rest[k - 1]
                b = rest[k] if k < len(rest) else None
                for piece in (segment, segment[::-1]):
                    cost = dist[a, piece[0]]
                    if b is not None:
                        cost += dist[piece[-1], b] - dist[a, b]
                    if cost < gain - 1e-12:
                        return rest[:k] + piece + rest[k:], True
    return order, False


def patch_loop_oracles(monkeypatch):
    """Put the loop references in place of `planner._two_opt` and
    `planner._or_opt`; returns the counts of their calls. The 2-opt oracle
    takes and ignores the memo arguments (`seen`, `starts`) and the
    threshold `bar`, so a search run on it records no pass starts and
    repeats every search in full; the Or-opt oracle ignores the index
    tables."""
    calls = {"two_opt": 0, "or_opt": 0}

    def two_opt(dist, order, *memo):
        calls["two_opt"] += 1
        return two_opt_loop(dist, order)

    def or_opt(dist, order, *tables):
        calls["or_opt"] += 1
        return or_opt_loop(dist, order)

    monkeypatch.setattr(planner, "_two_opt", two_opt)
    monkeypatch.setattr(planner, "_or_opt", or_opt)
    return calls


def count_two_opt_scans(run):
    """Call `run()` and count the 2-opt scans in it: the times a
    `_two_opt` frame reaches the line that takes its next move's argmax."""
    code = planner._two_opt.__code__
    lines, first = inspect.getsourcelines(planner._two_opt)
    target = first + next(k for k, line in enumerate(lines) if ".argmax()" in line)
    scans = 0

    def local(frame, event, arg):
        nonlocal scans
        scans += event == "line" and frame.f_lineno == target
        return local

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = run()
    finally:
        sys.settrace(outer)
    return result, scans


def forced_nearest_neighbor_loop(dist, first):
    """Reference nearest neighbour from a forced first point: scans the
    unvisited points in ascending order, so ties go to the lowest index."""
    n = dist.shape[0] - 1
    remaining = list(range(n))
    remaining.remove(first)
    order = [first]
    while remaining:
        pick = remaining[int(np.argmin(dist[order[-1], remaining]))]
        order.append(pick)
        remaining.remove(pick)
    return order


def heuristic_tsp_reference(points, start):
    """Memo-free `heuristic_tsp`: every start and every kick runs its
    2-opt/Or-opt alternation in full, from nearest-neighbour routes built
    one at a time. The move scans are looked up on `planner` at call time,
    so a test can wrap them."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n <= 1:
        return list(range(n))
    start = np.asarray(start, dtype=np.float64)
    dist = _extended_distances(pts, start)

    def search(order):
        improved = True
        while improved:
            order = planner._two_opt(dist, order)
            order, improved = planner._or_opt(dist, order)
        return order

    best, best_len = [], np.inf
    for first in range(n):
        order = search(forced_nearest_neighbor_loop(dist, first))
        length = route_length(pts, start, order)
        if length < best_len - 1e-12:
            best, best_len = order, length
    if n >= 4:
        rng = np.random.default_rng(0)
        for _ in range(_DOUBLE_BRIDGE_KICKS):
            cand = search(_double_bridge(best, rng))
            length = route_length(pts, start, cand)
            if length < best_len - 1e-12:
                best, best_len = cand, length
    return best


def _uniform_3d(rng, n):
    return rng.uniform(-5, 5, size=(n, 3)), rng.uniform(-5, 5, size=3)


def _uniform_2d(rng, n):
    return rng.uniform(-5, 5, size=(n, 2)), rng.uniform(-5, 5, size=2)


def _duplicated(rng, n):
    distinct = rng.uniform(-5, 5, size=(max(1, n // 2), 3))
    return distinct[rng.integers(0, len(distinct), size=n)], rng.uniform(-5, 5, size=3)


def _integer_grid(rng, n):
    # Few distinct coordinates, so many routes tie exactly.
    return rng.integers(0, 3, size=(n, 2)).astype(np.float64), rng.integers(0, 3, size=2).astype(np.float64)


def _start_on_point(rng, n):
    points = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
    return points, points[rng.integers(0, n)].copy() if n else np.zeros(2)


def _all_equal(rng, n):
    # Every route has the same length, so only the tie rule decides.
    point = rng.uniform(-5, 5, size=3)
    return np.tile(point, (n, 1)), point if rng.random() < 0.5 else rng.uniform(-5, 5, size=3)


EXACT_CASES = [_uniform_3d, _uniform_2d, _duplicated, _integer_grid, _start_on_point, _all_equal]


class TestTsp:
    def test_empty_and_single(self):
        assert held_karp(np.zeros((0, 3)), np.zeros(3)) == []
        assert solve_tsp(np.array([[2.0, 0.0, 0.0]]), np.zeros(3)) == [0]

    def test_collinear_points(self):
        points = np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        order = solve_tsp(points, np.zeros(3))
        assert order == [0, 1, 2]
        assert route_length(points, np.zeros(3), order) == pytest.approx(3.0)

    def test_route_length_is_running_sum_of_matrix_legs(self):
        # The runners and heuristic_tsp measure walks on the distance matrix
        # (`_path_length`), so it must equal route_length, float for float,
        # and both the left-to-right sum of distance-matrix legs: from the
        # start (index n) and from a node, where the fallback starts.
        rng = np.random.default_rng(7)
        for v, n in itertools.product([10.0] + [v for v in MAGNITUDES if v <= MAX_COORDINATE], range(31)):
            points = rng.uniform(-v, v, size=(n, 3))
            start = rng.uniform(-v, v, size=3)
            order = [int(k) for k in rng.permutation(n)]
            dist = _extended_distances(points, start)
            walks = [(n, order, start)]
            if n:
                walks.append((order[0], order[1:], points[order[0]]))
            for first, rest, begin in walks:
                expected, prev = 0.0, first
                for k in rest:
                    expected, prev = expected + dist[prev, k], k
                assert route_length(points, begin, rest) == expected, (v, n, first)
                assert planner._path_length(dist, first, rest) == expected, (v, n, first)

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(2, 8))
            points = rng.uniform(0, 10, size=(n, 3))
            start = rng.uniform(0, 10, size=3)
            order = held_karp(points, start)
            _, best_len = brute_force(points, start)
            assert route_length(points, start, order) == pytest.approx(best_len), trial

    def test_exact_breaks_ties_deterministically(self):
        # Both routes over this symmetric pair have length 3; the argmin
        # tie rule keeps the lower-index endpoint, so the route ends at 0.
        points = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        assert held_karp(points, np.zeros(3)) == [1, 0]
        assert held_karp(points, np.zeros(3)) == held_karp(points, np.zeros(3))

    @pytest.mark.parametrize("make_points", EXACT_CASES)
    def test_exact_matches_loop_reference(self, make_points):
        # Every size up to 12, then many draws at the sizes most calls see:
        # phase-1 routes have n + 3 points and fallback tours are often short.
        rng = np.random.default_rng(11)
        for trial, n in enumerate(list(range(13)) + [1 + t % 7 for t in range(280)]):
            points, start = make_points(rng, n)
            order = held_karp(points, start)
            assert order == held_karp_loop(points, start), (trial, n)
            assert all(type(k) is int for k in order), order

    @pytest.mark.parametrize("make_points", [_duplicated, _integer_grid])
    def test_exact_matches_loop_reference_up_to_the_limit(self, make_points):
        # Coverage tours reach EXACT_TSP_LIMIT points; these two generators
        # make many exact ties, so the tie rule is checked at full size too.
        rng = np.random.default_rng(13)
        for n in range(13, EXACT_TSP_LIMIT + 1):
            points, start = make_points(rng, n)
            assert held_karp(points, start) == held_karp_loop(points, start), n

    def test_exact_ignores_self_distances(self, monkeypatch):
        # A point is never its own predecessor: those entries are masked,
        # so even a NaN on the distance diagonal leaves every route as is.
        def nan_diagonal(pts, start):
            extended = _extended_distances(pts, start)
            np.fill_diagonal(extended, np.nan)
            return extended

        monkeypatch.setattr(planner, "_extended_distances", nan_diagonal)
        rng = np.random.default_rng(16)
        for n in range(1, 9):
            points, start = _integer_grid(rng, n)
            assert held_karp(points, start) == held_karp_loop(points, start), n

    @pytest.mark.parametrize("make_points", EXACT_CASES)
    def test_table_read_back_is_held_karp_on_the_members(self, make_points):
        # One table over all points gives, for any member set, the route
        # held_karp and the loop oracle give on those points alone.
        rng = np.random.default_rng(17)
        loops = 0
        for trial in range(400):
            n = 1 + trial % 9
            points, start = make_points(rng, n)
            table = planner._held_karp_fill(points, start)
            for _ in range(2):
                members = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
                route = planner._held_karp_route(table, members)
                assert route == [members[k] for k in held_karp(points[members], start)], (trial, members)
                assert route == [members[k] for k in held_karp_loop(points[members], start)], (trial, members)
                loops += 1
        assert loops == 800

    def test_exact_memory_at_limit(self):
        # Alive at the peak: the float64 cost table, 15 * 2**15 * 8 bytes =
        # 3.75 MiB; `prev`, the int64 predecessor masks by endpoint, 15 *
        # 2**14 * 8 bytes = 1.9 MiB; one layer block of at most 15 * 15 *
        # C(14, 7) * 8 bytes = 5.9 MiB; and that layer's min and write
        # index, 15 * C(14, 7) * 8 bytes = 0.4 MiB each. No parent table and
        # no write index kept for every layer; a second block alive at once
        # would pass 16 MiB.
        rng = np.random.default_rng(12)
        points = rng.uniform(0, 10, size=(EXACT_TSP_LIMIT, 3))
        tracemalloc.start()
        try:
            held_karp(points, np.zeros(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_routes_visit_each_point_once(self):
        rng = np.random.default_rng(1)
        for n in [1, 5, 12, 20]:
            points = rng.uniform(0, 5, size=(n, 2))
            order = solve_tsp(points, np.zeros(2))
            assert sorted(order) == list(range(n))

    def test_heuristic_near_optimal_on_ten_points(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            points = rng.uniform(0, 10, size=(10, 2))
            start = rng.uniform(0, 10, size=2)
            exact = route_length(points, start, held_karp(points, start))
            heuristic = heuristic_tsp(points, start)
            assert sorted(heuristic) == list(range(10))
            assert route_length(points, start, heuristic) <= 1.05 * exact, trial

    def test_heuristic_is_deterministic(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(0, 10, size=(18, 2))
        start = rng.uniform(0, 10, size=2)
        assert heuristic_tsp(points, start) == heuristic_tsp(points, start)

    def test_two_opt_never_lengthens(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            points = rng.uniform(0, 10, size=(12, 2))
            start = rng.uniform(0, 10, size=2)
            dist = _extended_distances(points, start)
            before = _nearest_neighbor_routes(dist)[trial]
            after = _two_opt(dist, list(before))
            assert sorted(after) == list(range(12))
            assert route_length(points, start, after) <= route_length(
                points, start, before
            ) + 1e-12

    @pytest.mark.parametrize("make_points", [_uniform_3d, _uniform_2d, _duplicated, _integer_grid])
    def test_move_scans_match_loop_reference(self, make_points):
        # From a random order (many 2-opt moves) and from a 2-opt optimum
        # (Or-opt hits deep in its scan), on 2-30 points, then on a few
        # longer move sequences at 40 and 60 points. The scans reorder a
        # private copy of `dist`, which one heuristic_tsp call shares
        # across all its searches, so `dist` must come back unchanged.
        rng = np.random.default_rng(13)
        sizes = [2 + trial % 29 for trial in range(120)] + [40, 60] * 3
        for trial, n in enumerate(sizes):
            points, start = make_points(rng, n)
            dist = _extended_distances(points, start)
            frozen = dist.tobytes()
            order = [int(k) for k in rng.permutation(n)]
            polished = two_opt_loop(dist, list(order))
            assert _two_opt(dist, list(order)) == polished, (trial, n)
            assert dist.tobytes() == frozen, (trial, n)
            for before in (order, polished):
                assert _or_opt(dist, list(before)) == or_opt_loop(dist, list(before)), (trial, n)
                assert dist.tobytes() == frozen, (trial, n)
        # Or-opt from a 2-opt optimum at 100 and 200 points reads deep into
        # the largest index tables.
        for n in (100, 200):
            points, start = make_points(rng, n)
            dist = _extended_distances(points, start)
            polished = _two_opt(dist, [int(k) for k in rng.permutation(n)])
            assert _or_opt(dist, list(polished)) == or_opt_loop(dist, list(polished)), n

    @pytest.mark.parametrize("make_points", [_uniform_3d, _uniform_2d, _duplicated, _integer_grid])
    def test_heuristic_matches_loop_reference(self, make_points, monkeypatch):
        rng = np.random.default_rng(14)
        cases = [make_points(rng, n) for n in (2, 3, 4, 5, 8, 13, 17, 22, 30)]
        got = [heuristic_tsp(points, start) for points, start in cases]
        calls = patch_loop_oracles(monkeypatch)
        for (points, start), order in zip(cases, got):
            assert order == heuristic_tsp(points, start), len(points)
        assert calls["two_opt"] > 0 and calls["or_opt"] > 0, calls

    def test_heuristic_matches_loop_reference_on_acceptance_instances(self, monkeypatch):
        # The ten-point instances of the acceptance gate's route check.
        cases = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            cases.append((rng.uniform(0, 10, size=(10, 2)), rng.uniform(0, 10, size=2)))
        got = [heuristic_tsp(points, start) for points, start in cases]
        calls = patch_loop_oracles(monkeypatch)
        for (points, start), order in zip(cases, got):
            assert order == heuristic_tsp(points, start)
        assert calls["two_opt"] > 0 and calls["or_opt"] > 0, calls

    @pytest.mark.parametrize("make_points", [_uniform_3d, _uniform_2d, _duplicated, _integer_grid, _all_equal])
    def test_nearest_neighbor_routes_match_loop_reference(self, make_points):
        # Duplicated points, the integer grid and equal points tie often.
        rng = np.random.default_rng(17)
        for n in range(2, 41):
            points, start = make_points(rng, n)
            dist = _extended_distances(points, start)
            routes = _nearest_neighbor_routes(dist)
            assert len(routes) == n
            for first in range(n):
                assert routes[first] == forced_nearest_neighbor_loop(dist, first), (n, first)

    @pytest.mark.parametrize("make_points", [_uniform_3d, _uniform_2d, _duplicated, _integer_grid])
    def test_heuristic_matches_memo_free_reference(self, make_points):
        rng = np.random.default_rng(18)
        for trial in range(15):
            n = 16 + trial * 24 // 14  # 16 to 40 points
            points, start = make_points(rng, n)
            assert heuristic_tsp(points, start) == heuristic_tsp_reference(points, start), (trial, n)

    @pytest.mark.parametrize("make_points", [_uniform_3d, _uniform_2d, _duplicated, _integer_grid])
    def test_seen_maps_each_order_to_its_full_search(self, make_points):
        # A wrong memo entry often leaves the best route as it is (only
        # the best search's result is returned), so check every entry.
        rng = np.random.default_rng(20)
        for n in (16, 22, 30):
            points, start = make_points(rng, n)
            dist = _extended_distances(points, start)
            seen = {}
            starts = _nearest_neighbor_routes(dist) + [[int(k) for k in rng.permutation(n)] for _ in range(5)]
            for route in starts:
                got = _local_search(dist, list(route), seen)
                assert tuple(route) in seen and list(seen[tuple(route)]) == got
            for order, result in seen.items():
                assert _local_search(dist, list(order), {}) == list(result), (n, order)

    def test_heuristic_skips_repeated_searches(self, monkeypatch):
        # Most starts end on a local optimum an earlier start reached, and
        # stop there instead of repeating the search's last scans.
        rng = np.random.default_rng(0)
        points, start = _uniform_3d(rng, 22)
        calls = {"two_opt": 0, "or_opt": 0}

        def counting(name, scan):
            def wrapped(dist, order, *memo):
                calls[name] += 1
                return scan(dist, order, *memo)
            return wrapped

        monkeypatch.setattr(planner, "_two_opt", counting("two_opt", _two_opt))
        monkeypatch.setattr(planner, "_or_opt", counting("or_opt", _or_opt))
        got = heuristic_tsp(points, start)
        memo_calls = dict(calls)
        calls.update(two_opt=0, or_opt=0)
        assert got == heuristic_tsp_reference(points, start)
        assert memo_calls["two_opt"] < calls["two_opt"], (memo_calls, calls)
        assert memo_calls["or_opt"] < calls["or_opt"], (memo_calls, calls)

    def test_seen_holds_every_two_opt_pass_start(self, monkeypatch):
        # Besides loop heads and 2-opt optima, `seen` holds the orders the
        # later passes of a 2-opt call started from, so a search whose pass
        # would start from one stops there, and the call runs fewer scans.
        rng = np.random.default_rng(0)
        points, start = _uniform_3d(rng, 22)
        got, scans = count_two_opt_scans(lambda: heuristic_tsp(points, start))
        assert got == heuristic_tsp_reference(points, start)
        # 358 scans; remembering only loop heads and 2-opt optima, 397.
        assert scans < 397, scans

        heads, optima = set(), set()

        def two_opt(dist, order, *memo):
            heads.add(tuple(order))
            return _two_opt(dist, order, *memo)

        def or_opt(dist, order, *tables):
            optima.add(tuple(order))  # Or-opt only ever starts from a 2-opt optimum
            return _or_opt(dist, order, *tables)

        monkeypatch.setattr(planner, "_two_opt", two_opt)
        monkeypatch.setattr(planner, "_or_opt", or_opt)
        dist = _extended_distances(points, start)
        seen = {}
        for route in _nearest_neighbor_routes(dist):
            _local_search(dist, route, seen)
        assert set(seen) - heads - optima

    def test_scan_tables_built_once_per_call(self, monkeypatch):
        # The tables depend on n alone: one heuristic_tsp call builds them
        # once for all its searches and keeps none for the next call.
        rng = np.random.default_rng(21)
        cases = [_uniform_3d(rng, n) for n in (22, 30)]
        expected = [heuristic_tsp(points, start) for points, start in cases]
        built = {"bar": [], "or_opt": []}

        def counting(name, build):
            def wrapped(n):
                built[name].append(n)
                return build(n)
            return wrapped

        monkeypatch.setattr(planner, "_two_opt_bar", counting("bar", _two_opt_bar))
        monkeypatch.setattr(planner, "_or_opt_tables", counting("or_opt", _or_opt_tables))
        assert heuristic_tsp(*cases[0]) == expected[0]
        assert built == {"bar": [22], "or_opt": [22]}
        assert heuristic_tsp(*cases[1]) == expected[1]
        assert built == {"bar": [22, 30], "or_opt": [22, 30]}

    def test_heuristic_memory_at_200_points(self):
        # About 7.5 MiB without the index tables, mostly the orders held in
        # `seen`; Or-opt's tables for the three run lengths add 3.9 MiB of
        # int64, and one scan's gathers about 2.2 MiB at a time (11.9 MiB in
        # all). Tables kept for each search would pass 16 MiB.
        rng = np.random.default_rng(22)
        points, start = _uniform_3d(rng, 200)
        tracemalloc.start()
        try:
            heuristic_tsp(points, start)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_threshold_switches_to_heuristic(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 10, size=(EXACT_TSP_LIMIT + 1, 2))
        order = solve_tsp(points, np.zeros(2))
        assert sorted(order) == list(range(EXACT_TSP_LIMIT + 1))
        small = rng.uniform(0, 10, size=(6, 2))
        assert solve_tsp(small, np.zeros(2)) == held_karp(small, np.zeros(2))


def line_episode(tiny_tax, n=1, changed_ids=("c",), start=(0.0, 0.0, 0.0)):
    """Three objects on a line at x = 1, 2, 3; `changed_ids` move by 1m."""
    nodes = [
        make_node("a", attrs=(1,), pos=(1.0, 0, 0)),
        make_node("b", attrs=(1,), pos=(2.0, 0, 0)),
        make_node("c", attrs=(1,), pos=(3.0, 0, 0)),
    ]
    previous = make_graph(nodes, scan="s0")
    realized_nodes = [
        make_node(
            n_.id,
            attrs=(1,),
            pos=(n_.position[0], 1.0 if n_.id in changed_ids else 0.0, 0.0),
        )
        for n_ in nodes
    ]
    realized = make_graph(realized_nodes, scan="s1", t=1)
    return Episode(previous, realized, n=n, start_position=start)


class TestCoverage:
    def test_hand_traced_route(self, tiny_tax):
        ep = line_episode(tiny_tax, changed_ids=("c",))
        result = run_coverage(ep, tiny_tax)
        assert result.visit_order == ("a", "b", "c")
        assert result.distance_traveled == pytest.approx(3.0)
        assert result.changes_found == 1
        assert not result.infeasible and not result.fallback_used

    def test_stops_at_first_change(self, tiny_tax):
        ep = line_episode(tiny_tax, changed_ids=("a", "b", "c"))
        result = run_coverage(ep, tiny_tax)
        assert result.visit_order == ("a",)
        assert result.distance_traveled == pytest.approx(1.0)

    def test_no_changes_walks_everything_and_is_infeasible(self, tiny_tax):
        ep = line_episode(tiny_tax, changed_ids=())
        result = run_coverage(ep, tiny_tax)
        assert result.visit_order == ("a", "b", "c")
        assert result.infeasible
        assert result.changes_found == 0

    def test_vanished_object_detected_at_old_position(self, tiny_tax):
        nodes = [make_node("a", attrs=(1,), pos=(1.0, 0, 0)), make_node("b", attrs=(1,), pos=(2.0, 0, 0))]
        previous = make_graph(nodes, scan="s0")
        realized = make_graph([nodes[1]], scan="s1", t=1)
        ep = Episode(previous, realized, n=1, start_position=(0.0, 0.0, 0.0))
        result = run_coverage(ep, tiny_tax)
        assert result.visit_order == ("a",)
        assert result.changes_found == 1

    def test_episode_validation(self, tiny_tax):
        with pytest.raises(ConfigError):
            line_episode(tiny_tax, n=0)
        empty = make_graph([], scan="s0")
        with pytest.raises(ConfigError):
            Episode(empty, empty, n=1)
        with pytest.raises(ConfigError, match="non-empty map"):  # the rule an Episode applies
            ranked_route(empty, {}, 1, np.zeros(3))

    @pytest.mark.parametrize("n", [float("nan"), 1.5, 2.0, True])
    def test_n_must_be_a_count(self, tiny_tax, n):
        # Else a NaN n gives an empty 0 m Coverage walk marked feasible.
        ep = line_episode(tiny_tax)
        with pytest.raises(ConfigError, match="n must be an integer"):
            Episode(ep.previous_map, ep.realized_scene, n=n)
        probs = OracleScorer(ep.realized_scene).predict_probabilities(ep.previous_map, tiny_tax)
        with pytest.raises(ConfigError, match="n >= 1"):
            ranked_route(ep.previous_map, probs, n, ep.start())
        assert Episode(ep.previous_map, ep.realized_scene, n=np.int64(1)).n == 1

    def test_default_start_is_map_centroid(self, tiny_tax):
        ep = line_episode(tiny_tax)
        centroid_ep = Episode(ep.previous_map, ep.realized_scene, n=1)
        npt.assert_allclose(centroid_ep.start(), [2.0, 0.0, 0.0])

    @pytest.mark.parametrize("start", [np.array([1, 2, 3]), [1, 2, 3], (1.0, np.float32(2), np.int64(3))])
    def test_start_position_is_kept_as_a_float_tuple(self, tiny_tax, start):
        # So episodes compare and hash whatever sequence their start came as.
        ep = line_episode(tiny_tax)
        same = [Episode(ep.previous_map, ep.realized_scene, n=1, start_position=start) for _ in range(2)]
        assert same[0].start_position == (1.0, 2.0, 3.0)
        assert all(type(c) is float for c in same[0].start_position)
        assert same[0] == same[1]
        floats = Episode(ep.previous_map, ep.realized_scene, n=1, start_position=(1.0, 2.0, 3.0))
        assert hash(same[0]) == hash(floats)

    @pytest.mark.parametrize("tour", [[0, 0, 1], [0, 1], [0, 1, 3], [2, 1, 0, 0]])
    def test_tour_that_is_not_a_permutation_is_refused(self, tiny_tax, tour):
        # A context's Coverage tour may be set rather than solved; a repeat
        # or a gap would count a change twice or skip an object.
        ep = line_episode(tiny_tax, n=2, changed_ids=("a",))
        context = planner._MapContext(ep.previous_map, ep.previous_map.positions(), ep.start_position)
        context.tour = tour
        with pytest.raises(ConfigError, match="visits each object once"):
            run_coverage(ep, tiny_tax, context=context)


class TestHostileMagnitudes:
    @pytest.mark.parametrize("v", MAGNITUDES + [float("nan"), float("inf")])
    def test_episode_start_is_checked(self, tiny_tax, v):
        if not v <= MAX_COORDINATE:
            with pytest.raises(ConfigError, match="start_position"):
                line_episode(tiny_tax, start=(v, 0.0, 0.0))
            return
        ep = line_episode(tiny_tax, start=(v, 0.0, -v))
        oracle = OracleScorer(ep.realized_scene)
        for result in (run_coverage(ep, tiny_tax), run_vsg_planner(ep, oracle, tiny_tax)):
            assert np.isfinite(result.distance_traveled) and result.changes_found == 1

    @pytest.mark.parametrize("n", [6, EXACT_TSP_LIMIT + 5])
    @pytest.mark.parametrize("v", [v for v in MAGNITUDES if v <= MAX_COORDINATE])
    def test_solve_tsp_at_the_bound_gives_a_permutation(self, n, v):
        points = v - np.random.default_rng(n).uniform(0.0, 8.0, size=(n, 3))
        for start in (points.mean(axis=0), np.full(3, -v)):
            order = solve_tsp(points, start)
            assert sorted(order) == list(range(n))
            assert np.isfinite(route_length(points, start, order))


class UniformScorer:
    """Equal score everywhere; selection then falls to the id tie-break."""

    def __init__(self, value=0.5):
        self.value = value

    def predict_probabilities(self, g, tax):
        return {oid: (self.value,) * 3 for oid in g.node_ids}


class FixedScorer:
    """Returns the same given probabilities for any graph."""

    def __init__(self, probabilities):
        self.probabilities = probabilities

    def predict_probabilities(self, g, tax):
        return self.probabilities


class PositionScorer:
    """Probabilities from each object's position in the 8 m cube: they
    depend on the graph alone and differ between objects."""

    def predict_probabilities(self, g, tax):
        return dict(zip(g.node_ids, map(tuple, (g.positions() / 8.0).tolist())))


def cluster_episode(tiny_tax, n=2):
    """Eight decoys clustered near the start, two changed objects far away."""
    nodes = [
        make_node(f"u{k}", attrs=(1,), pos=(0.5 + 0.05 * k, 0.3, 0.0)) for k in range(8)
    ]
    nodes += [
        make_node("zc1", attrs=(1,), pos=(4.0, 0.0, 0.0)),
        make_node("zc2", attrs=(1,), pos=(4.5, 0.0, 0.0)),
    ]
    previous = make_graph(nodes, scan="s0")
    realized = make_graph(
        [
            make_node(
                n_.id,
                attrs=(1,),
                pos=(
                    n_.position[0],
                    n_.position[1] + (1.0 if n_.id.startswith("zc") else 0.0),
                    0.0,
                ),
            )
            for n_ in nodes
        ],
        scan="s1",
        t=1,
    )
    return Episode(previous, realized, n=n, start_position=(0.0, 0.0, 0.0))


class TestVsgPlanner:
    def test_oracle_beats_coverage_on_clustered_decoys(self, tiny_tax):
        ep = cluster_episode(tiny_tax)
        oracle = OracleScorer(ep.realized_scene)
        vsg = run_vsg_planner(ep, oracle, tiny_tax)
        cov = run_coverage(ep, tiny_tax)
        assert vsg.changes_found == 2
        assert not vsg.infeasible
        assert vsg.distance_traveled < cov.distance_traveled

    def test_oracle_probabilities_are_labels(self, tiny_tax):
        ep = line_episode(tiny_tax, changed_ids=("b",))
        probs = OracleScorer(ep.realized_scene).predict_probabilities(
            ep.previous_map, tiny_tax
        )
        assert probs["b"] == (1.0, 0.0, 0.0)
        assert probs["a"] == (0.0, 0.0, 0.0)

    def test_uniform_scores_fall_back_to_lowest_ids(self, tiny_tax):
        ep = cluster_episode(tiny_tax, n=1)
        result = run_vsg_planner(ep, UniformScorer(), tiny_tax)
        # n + 3 = 4 lowest ids are u0..u3; none changed, so the fallback
        # kicks in and the first four visits stay inside that set.
        assert set(result.visit_order[:4]) == {"u0", "u1", "u2", "u3"}
        assert result.fallback_used

    def test_first_route_that_repeats_an_object_is_refused(self, tiny_tax):
        # Visiting "a" twice would count its one change twice.
        ep = line_episode(tiny_tax, n=2, changed_ids=("a",))
        with pytest.raises(ConfigError, match="visits each object once"):
            run_vsg_planner(ep, UniformScorer(), tiny_tax, first=["a", "a", "c"])
        assert run_vsg_planner(ep, UniformScorer(), tiny_tax, first=["a", "c"]).infeasible

    def test_fallback_accumulates_distance(self, tiny_tax):
        ep = cluster_episode(tiny_tax, n=1)
        result = run_vsg_planner(ep, UniformScorer(), tiny_tax)
        positions = {n.id: np.array(n.position) for n in ep.previous_map.nodes}
        pos = ep.start()
        total = 0.0
        for oid in result.visit_order:
            total += float(np.linalg.norm(positions[oid] - pos))
            pos = positions[oid]
        assert result.distance_traveled == pytest.approx(total, abs=1e-12)
        assert result.changes_found == 1

    @pytest.mark.parametrize("n", [0, -2])
    def test_ranked_route_refuses_n_below_one(self, tiny_tax, n):
        ep = line_episode(tiny_tax)
        probs = OracleScorer(ep.realized_scene).predict_probabilities(ep.previous_map, tiny_tax)
        with pytest.raises(ConfigError, match="n >= 1"):
            ranked_route(ep.previous_map, probs, n, ep.start())

    def test_phase1_scores_keyed_by_other_ids_are_refused(self, tiny_tax):
        # Else no object is chosen and the phase-1 route is empty.
        ep = line_episode(tiny_tax)
        with pytest.raises(ConfigError, match="object 'a' of scan 's0' has none"):
            ranked_route(ep.previous_map, {"zzz": (1.0, 1.0, 1.0)}, 1, ep.start())
        every = dict.fromkeys(["a", "b", "c", "zzz", "yyy"], (0.5, 0.5, 0.5))
        with pytest.raises(ConfigError, match="'zzz' is not an object of scan 's0'"):
            ranked_route(ep.previous_map, every, 1, ep.start())

    def test_scorer_of_another_map_is_refused(self, tiny_tax):
        # Else the guided planner walks only the Coverage fallback and reports no fallback.
        ep = cluster_episode(tiny_tax, n=1)
        foreign = FixedScorer({f"x{k}": (0.5, 0.5, 0.5) for k in range(10)})
        with pytest.raises(ConfigError, match="object 'u0' of scan 's0' has none"):
            run_vsg_planner(ep, foreign, tiny_tax)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phase1_score_is_refused(self, tiny_tax, bad):
        # A NaN would sort arbitrarily among the scores.
        ep = cluster_episode(tiny_tax, n=1)
        scores = UniformScorer().predict_probabilities(ep.previous_map, tiny_tax) | {"u3": (0.5, bad, 0.5)}
        with pytest.raises(ConfigError, match="object 'u3' of scan 's0' has .*not three finite"):
            run_vsg_planner(ep, FixedScorer(scores), tiny_tax)
        with pytest.raises(ConfigError, match="'u3'"):
            ranked_route(ep.previous_map, scores, 1, ep.start())

    def test_small_map_degenerates_to_coverage(self, tiny_tax):
        # With at most n + 3 objects the first phase already tours the whole
        # map, so both planners walk the same route.
        ep = line_episode(tiny_tax, n=1, changed_ids=("c",))
        vsg = run_vsg_planner(ep, UniformScorer(), tiny_tax)
        cov = run_coverage(ep, tiny_tax)
        assert vsg.visit_order == cov.visit_order
        assert vsg.distance_traveled == pytest.approx(cov.distance_traveled)

    def test_replay_equals_reported_distance(self, tiny_tax):
        rng = np.random.default_rng(5)
        for trial in range(5):
            nodes = [
                make_node(f"o{k}", attrs=(1,), pos=tuple(rng.uniform(0, 8, size=3)))
                for k in range(9)
            ]
            previous = make_graph(nodes, scan="s0")
            moved = {f"o{k}" for k in rng.choice(9, size=3, replace=False)}
            realized = make_graph(
                [
                    make_node(
                        n_.id,
                        attrs=(1,),
                        pos=tuple(
                            np.array(n_.position)
                            + (rng.uniform(0.5, 1.0, size=3) if n_.id in moved else 0.0)
                        ),
                    )
                    for n_ in nodes
                ],
                scan="s1",
                t=1,
            )
            ep = Episode(previous, realized, n=2, start_position=(4.0, 4.0, 0.0))
            for result in (
                run_coverage(ep, tiny_tax),
                run_vsg_planner(ep, OracleScorer(realized), tiny_tax),
            ):
                positions = {n.id: np.array(n.position) for n in previous.nodes}
                pos, total = ep.start(), 0.0
                for oid in result.visit_order:
                    total += float(np.linalg.norm(positions[oid] - pos))
                    pos = positions[oid]
                assert result.distance_traveled == pytest.approx(total, abs=1e-12), trial

    def test_distance_is_route_length_of_the_visited_prefix(self, tiny_tax):
        # Random 8-object maps with 0-4 changes, n = 1-3, and random scores, so
        # some guided walks need the fallback and some Coverage walks run out.
        rng = np.random.default_rng(3)
        fallbacks = 0
        for trial in range(400):
            points = rng.uniform(0, 8, size=(8, 3))
            moved = rng.choice(8, size=int(rng.integers(0, 5)), replace=False)
            after = points.copy()
            after[moved, 1] += 1.0
            ids = [f"o{k}" for k in range(8)]
            ep = Episode(
                make_graph([make_node(i, attrs=(1,), pos=tuple(p)) for i, p in zip(ids, points)], scan="s0"),
                make_graph([make_node(i, attrs=(1,), pos=tuple(p)) for i, p in zip(ids, after)], scan="s1", t=1),
                n=int(rng.integers(1, 4)),
                start_position=tuple(rng.uniform(0, 8, size=3)) if trial % 2 else None,
            )
            scorer = FixedScorer({i: tuple(rng.random(3)) for i in ids})
            begin = ep.start()
            for result in (run_coverage(ep, tiny_tax), run_vsg_planner(ep, scorer, tiny_tax)):
                order = [ep.previous_map.node_index(oid) for oid in result.visit_order]
                # The fallback starts where the whole phase-1 route of n + 3 objects ended.
                cut = ep.n + 3 if result.fallback_used else len(order)
                want = route_length(points, begin, order[:cut])
                if result.fallback_used:
                    fallbacks += 1
                    want += route_length(points, points[order[cut - 1]], order[cut:])
                assert result.distance_traveled == want, (trial, result.planner)
        assert fallbacks > 50


def scan_pair_episodes(rng, num_objects, num_moved, n_values=(1, 2, 3)):
    """One random scan pair, one episode per n; `num_moved` objects move 1m."""
    nodes = [
        make_node(f"o{k:02d}", attrs=(1,), pos=tuple(rng.uniform(0, 8, size=3)))
        for k in range(num_objects)
    ]
    moved = {f"o{k:02d}" for k in rng.choice(num_objects, size=num_moved, replace=False)}

    def realized_position(node):
        x, y, z = node.position
        return (x, y + 1.0, z) if node.id in moved else node.position

    realized = [make_node(n_.id, attrs=(1,), pos=realized_position(n_)) for n_ in nodes]
    previous = make_graph(nodes, scan="s0")
    return make_episodes({"envA": [previous, make_graph(realized, scan="s1", t=1)]}, list(n_values))


class TestBenchmark:
    def test_coverage_tour_solved_once_per_map_and_start(self, tiny_tax, monkeypatch):
        # Two maps (one above EXACT_TSP_LIMIT), each with episodes for n = 1, 2, 3,
        # and the second map's episodes again from an explicit start. The
        # small map's tour comes from one Held-Karp table fill, the large
        # map's from one solve_tsp call per start.
        rng = np.random.default_rng(21)
        episodes = scan_pair_episodes(rng, 9, 4) + scan_pair_episodes(rng, EXACT_TSP_LIMIT + 3, 4)
        episodes += [
            Episode(ep.previous_map, ep.realized_scene, ep.n, start_position=(1.0, 2.0, 0.5))
            for ep in episodes[3:]
        ]
        fills, tours = [], []
        fill, solve = planner._held_karp_fill, planner.solve_tsp

        def counting(calls, run):
            def wrapped(points, start):
                calls.append((np.asarray(points).tobytes(), np.asarray(start).tobytes()))
                return run(points, start)
            return wrapped

        monkeypatch.setattr(planner, "_held_karp_fill", counting(fills, fill))
        monkeypatch.setattr(planner, "solve_tsp", counting(tours, solve))
        run_benchmark(episodes, UniformScorer(), tiny_tax)
        full_map_tours = {
            (ep.previous_map.positions().tobytes(), ep.start().tobytes()): ep.previous_map.num_nodes
            for ep in episodes
        }
        assert len(full_map_tours) == 3
        for key, size in full_map_tours.items():
            assert (fills.count(key), tours.count(key)) == ((1, 0) if size <= EXACT_TSP_LIMIT else (0, 1))

    def test_shared_coverage_tour_gives_the_same_summary(self, tiny_tax, monkeypatch):
        rng = np.random.default_rng(22)
        episodes = scan_pair_episodes(rng, 8, 3) + scan_pair_episodes(rng, EXACT_TSP_LIMIT + 5, 5)
        model = UniformScorer()
        summary = run_benchmark(episodes, model, tiny_tax)
        cov_calls = []
        coverage = planner.run_coverage

        def coverage_without_tour(ep, tax, *, changed=None, context=None):
            cov_calls.append(ep)
            return coverage(ep, tax)

        monkeypatch.setattr(planner, "run_coverage", coverage_without_tour)
        assert run_benchmark(episodes, model, tiny_tax) == summary
        assert cov_calls == episodes

    def test_labels_once_per_pair_and_predictions_once_per_map(self, tiny_tax, monkeypatch):
        # Three scan pairs with 3, 2 and 1 moved objects, n = 1..3, in
        # compare-planners' by-n order, so some episodes are infeasible.
        rng = np.random.default_rng(24)
        episodes = [ep for moved in (3, 2, 1) for ep in scan_pair_episodes(rng, 9, moved)]
        episodes.sort(key=lambda ep: ep.n)
        labelled, predicted = [], []
        labels = planner.compute_labels

        def counting_labels(current, future, tax, cfg):
            labelled.append((id(current), id(future)))
            return labels(current, future, tax, cfg)

        class CountingScorer(PositionScorer):
            def predict_probabilities(self, g, tax):
                predicted.append(id(g))
                return super().predict_probabilities(g, tax)

        monkeypatch.setattr(planner, "compute_labels", counting_labels)
        summary = run_benchmark(episodes, CountingScorer(), tiny_tax)
        assert (summary.feasible_episodes, summary.infeasible_episodes) == (6, 3)
        assert len(labelled) == len(set(labelled)) == 3
        assert len(predicted) == len(set(predicted)) == 3

    def test_runners_with_precomputed_inputs_are_unchanged(self, tiny_tax):
        # Each runner alone equals it given the episode's labels, a fresh
        # context (walked by the guided planner first, so its matrix comes
        # before any table), or one context shared by the map's episodes.
        rng = np.random.default_rng(25)
        scorer = PositionScorer()
        fallbacks = 0
        for moved in (4, 2, 1, 0):
            episodes = scan_pair_episodes(rng, 10, moved)
            shared = planner._MapContext(episodes[0].previous_map, episodes[0].previous_map.positions())
            for ep in episodes:
                changed = planner.changed_object_ids(ep, tiny_tax)
                probabilities = scorer.predict_probabilities(ep.previous_map, tiny_tax)
                cov = run_coverage(ep, tiny_tax)
                vsg = run_vsg_planner(ep, scorer, tiny_tax)
                fallbacks += vsg.fallback_used
                fresh = planner._MapContext(ep.previous_map, ep.previous_map.positions(), ep.start_position)
                assert run_vsg_planner(ep, scorer, tiny_tax, context=fresh) == vsg
                assert run_coverage(ep, tiny_tax, context=fresh) == cov
                assert run_coverage(ep, tiny_tax, changed=changed) == cov
                assert run_coverage(ep, tiny_tax, changed=changed, context=shared) == cov
                assert run_vsg_planner(ep, scorer, tiny_tax, changed=changed) == vsg
                first = ranked_route(ep.previous_map, probabilities, ep.n, ep.start())
                assert shared.table is not None and shared.phase1(probabilities, ep.n) == first
                assert run_vsg_planner(ep, scorer, tiny_tax, first=first) == vsg
                assert run_vsg_planner(ep, scorer, tiny_tax, first=first, changed=changed) == vsg
                assert run_vsg_planner(
                    ep, scorer, tiny_tax, first=first, changed=changed, context=shared
                ) == vsg
                assert run_vsg_planner(ep, scorer, tiny_tax, context=shared) == vsg
        assert fallbacks > 0

    def test_geometry_built_once_per_map_and_matrix_once_per_start(self, tiny_tax, monkeypatch):
        # The maps of test_coverage_tour_solved_once_per_map_and_start: the
        # planner builds each map's positions once and its centroid once, and
        # one full-map distance matrix per (map, start), which the runners
        # and ranked_route use instead of building their own: the small
        # map's comes with its Held-Karp table, the large map's from
        # _MapContext itself. No matrix is built per episode.
        rng = np.random.default_rng(21)
        episodes = scan_pair_episodes(rng, 9, 4) + scan_pair_episodes(rng, EXACT_TSP_LIMIT + 3, 4)
        episodes += [
            Episode(ep.previous_map, ep.realized_scene, ep.n, start_position=(1.0, 2.0, 0.5))
            for ep in episodes[3:]
        ]
        built, starts, matrices = [], [], []
        positions, route_start = SceneGraph.positions, planner.route_start
        extended = planner._extended_distances

        def counting_positions(graph):
            if sys._getframe(1).f_globals["__name__"] == "vsg.planner":
                built.append(id(graph))
            return positions(graph)

        def counting_route_start(points, start_position=None):
            starts.append((points.tobytes(), start_position))
            return route_start(points, start_position)

        def counting_extended(pts, start):
            matrices.append((sys._getframe(1).f_code.co_name, pts.tobytes(), start.tobytes()))
            return extended(pts, start)

        monkeypatch.setattr(SceneGraph, "positions", counting_positions)
        monkeypatch.setattr(planner, "route_start", counting_route_start)
        monkeypatch.setattr(planner, "_extended_distances", counting_extended)
        summary = run_benchmark(episodes, PositionScorer(), tiny_tax)
        assert summary.feasible_episodes == len(episodes)
        maps = {id(ep.previous_map) for ep in episodes}
        assert len(maps) == 2 and sorted(built) == sorted(maps)
        assert sorted(starts, key=repr) == sorted(
            {(ep.previous_map.positions().tobytes(), ep.start_position) for ep in episodes}, key=repr
        )
        assert sum(start is None for _, start in starts) == len(maps)
        full_map = {
            (ep.previous_map.positions().tobytes(), ep.start().tobytes()): ep.previous_map.num_nodes
            for ep in episodes
        }
        assert len(full_map) == 3
        for (pts, start), size in full_map.items():  # heuristic_tsp builds its own for the tour
            caller = "_held_karp_fill" if size <= EXACT_TSP_LIMIT else "dist"
            assert [c for c, *key in matrices if key == [pts, start] and c != "heuristic_tsp"] == [caller]
        assert sum(c == "dist" for c, *_ in matrices) == 2
        assert {c for c, *_ in matrices} <= {"dist", "_held_karp_fill", "heuristic_tsp"}

    def test_phase1_routes_read_from_the_table_are_ranked_routes(self, tiny_tax, monkeypatch):
        # Maps of 5 to EXACT_TSP_LIMIT + 2 objects, n = 1..3 in by-n order,
        # some episodes from an explicit start: every phase-1 route that
        # run_benchmark reads back from a map's table is the route
        # ranked_route solves on its own.
        rng = np.random.default_rng(28)
        episodes = []
        for size in (5, 8, 11, EXACT_TSP_LIMIT, EXACT_TSP_LIMIT + 2):
            pair = scan_pair_episodes(rng, size, 4)
            episodes += pair + [
                Episode(ep.previous_map, ep.realized_scene, ep.n, start_position=start)
                for ep, start in zip(pair, rng.uniform(0, 8, size=(3, 3)).tolist())
            ]
        episodes.sort(key=lambda ep: ep.n)
        calls, phase1 = [], planner._MapContext.phase1

        def spy(context, probabilities, n):
            route = phase1(context, probabilities, n)
            calls.append((context.table is not None, route, context.graph, probabilities, n, context.start))
            return route

        monkeypatch.setattr(planner._MapContext, "phase1", spy)
        scorer = PositionScorer()
        assert run_benchmark(episodes, scorer, tiny_tax).feasible_episodes == len(episodes)
        monkeypatch.undo()
        assert len(calls) == len(episodes)
        assert sum(from_table for from_table, *_ in calls) == len(episodes) - 6
        for _, route, *args in calls:
            assert route == ranked_route(*args)

    def test_memory_does_not_grow_with_the_number_of_maps(self, tiny_tax):
        # 15-object maps in compare-planners' by-n order: one map's Held-Karp
        # table is alive at a time, so 12 maps peak as 2 do, under
        # test_exact_memory_at_limit's bound for one held_karp call.
        rng = np.random.default_rng(29)
        episodes = [scan_pair_episodes(rng, EXACT_TSP_LIMIT, 3) for _ in range(12)]

        def peak(maps):
            chosen = sorted((ep for pair in episodes[:maps] for ep in pair), key=lambda ep: ep.n)
            tracemalloc.start()
            try:
                run_benchmark(chosen, PositionScorer(), tiny_tax)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(2), peak(12)
        assert abs(many - few) < 2**20, (few, many)
        assert max(few, many) < 16 * 2**20

    def test_coverage_with_precomputed_tour_is_unchanged(self, tiny_tax):
        # One context solves a heuristic map's Coverage tour and walks it for every n.
        rng = np.random.default_rng(23)
        episodes = scan_pair_episodes(rng, EXACT_TSP_LIMIT + 2, 3)
        context = planner._MapContext(episodes[0].previous_map, episodes[0].previous_map.positions())
        for ep in episodes:
            assert run_coverage(ep, tiny_tax, context=context) == run_coverage(ep, tiny_tax)
        assert context.table is None and context.tour == solve_tsp(ep.previous_map.positions(), ep.start())

    def test_summary_rows(self, tiny_tax):
        episodes = [
            cluster_episode(tiny_tax, n=1),
            cluster_episode(tiny_tax, n=2),
            line_episode(tiny_tax, n=1, changed_ids=("c",)),
        ]
        oracle = OracleScorer(episodes[0].realized_scene)

        class PerEpisodeOracle:
            def predict_probabilities(self, g, tax):
                for ep in episodes:
                    if ep.previous_map.scan_id == g.scan_id and set(
                        ep.previous_map.node_ids
                    ) == set(g.node_ids):
                        return OracleScorer(ep.realized_scene).predict_probabilities(g, tax)
                raise AssertionError("unknown episode")

        summary = run_benchmark(episodes, PerEpisodeOracle(), tiny_tax)
        assert summary.feasible_episodes == 3
        assert summary.infeasible_episodes == 0
        assert [(r.n, r.planner) for r in summary.rows] == [
            (1, "coverage"),
            (1, "vsg"),
            (2, "coverage"),
            (2, "vsg"),
        ]
        for row in summary.rows:
            if row.planner == "coverage":
                assert row.speedup == 0.0

        by_key = {(r.n, r.planner): r for r in summary.rows}
        vsg2 = by_key[(2, "vsg")]
        cov2 = by_key[(2, "coverage")]
        assert vsg2.mean_distance < cov2.mean_distance
        assert vsg2.win_fraction == 1.0
        assert cov2.win_fraction == 0.0
        assert vsg2.speedup == pytest.approx(
            (cov2.mean_distance - vsg2.mean_distance) / cov2.mean_distance
        )

    def test_summary_rows_are_each_planners_own_reductions(self, tiny_tax, monkeypatch):
        # k = 1 .. 5,000 episodes per n (around numpy's 128-element pairwise
        # summation block too), with distances over many magnitudes, so a
        # different summation order would show. Every group of four or more
        # holds Coverage distances of 0 (speedup's `where` branch) and exact
        # ties (neither planner wins). The runners are stubbed: only the
        # summary is under test.
        rng = np.random.default_rng(27)
        graph = make_graph([make_node("a", pos=(1.0, 0.0, 0.0))])
        sizes = [1, 2, 3, 4, 5, 7, 31, 127, 128, 129, 999, 4999, 5000]
        groups, episodes, distance_of = {}, [], {}
        for n, k in enumerate(sizes, start=1):
            cov, vsg = rng.lognormal(1.0, 3.0, size=(2, k))
            if k >= 4:
                cov[rng.choice(k, size=k // 4 + 1, replace=False)] = 0.0
                tied = rng.choice(k, size=k // 4 + 1, replace=False)
                vsg[tied] = cov[tied]
            groups[n] = cov, vsg
            for c, v in zip(cov.tolist(), vsg.tolist()):
                episodes.append(Episode(graph, graph, n))
                distance_of[id(episodes[-1])] = c, v

        def runner(column):
            def run(ep, *args, **kwargs):
                return planner.EpisodeResult("stub", (), distance_of[id(ep)][column], ep.n, False, False)
            return run

        monkeypatch.setattr(planner, "run_coverage", runner(0))
        monkeypatch.setattr(planner, "run_vsg_planner", runner(1))
        monkeypatch.setattr(planner, "changed_object_ids", lambda ep, tax: frozenset())
        monkeypatch.setattr(planner, "ranked_route", lambda *args: [])
        summary = run_benchmark(episodes, UniformScorer(), tiny_tax)
        assert summary.feasible_episodes == sum(sizes) and summary.infeasible_episodes == 0

        expected = []
        for n, (cov, vsg) in groups.items():
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(cov > 0, (cov - vsg) / cov, 0.0)
            for planner_name, mine, rival, speedup in (
                ("coverage", cov, vsg, 0.0), ("vsg", vsg, cov, rel.mean())
            ):
                expected.append((n, planner_name, mine.mean(), mine.std(), (mine < rival).mean(), speedup))
        got = [(r.n, r.planner, r.mean_distance, r.std_distance, r.win_fraction, r.speedup) for r in summary.rows]
        bits = lambda rows: [(n, p, *(float(x).hex() for x in rest)) for n, p, *rest in rows]
        assert bits(got) == bits(expected)
        assert all(type(x) is float for row in got for x in row[2:])
        big = {r.planner: r.win_fraction for r in summary.rows if r.n == len(sizes)}
        assert 0 < big["coverage"] + big["vsg"] < 1  # the ties count for neither

    def test_ties_count_for_neither(self, tiny_tax):
        ep = line_episode(tiny_tax, n=1, changed_ids=("c",))
        summary = run_benchmark([ep], UniformScorer(), tiny_tax)
        for row in summary.rows:
            assert row.win_fraction == 0.0

    def test_infeasible_episodes_excluded(self, tiny_tax):
        feasible = line_episode(tiny_tax, n=1, changed_ids=("c",))
        impossible = line_episode(tiny_tax, n=3, changed_ids=("c",))
        summary = run_benchmark(
            [feasible, impossible], OracleScorer(feasible.realized_scene), tiny_tax
        )
        assert summary.feasible_episodes == 1
        assert summary.infeasible_episodes == 1
        assert {r.n for r in summary.rows} == {1}

    def test_all_infeasible_rejected(self, tiny_tax):
        impossible = line_episode(tiny_tax, n=3, changed_ids=())
        with pytest.raises(EvaluationError):
            run_benchmark([impossible], UniformScorer(), tiny_tax)

    def test_csv_format(self, tiny_tax, tmp_path):
        ep = line_episode(tiny_tax, n=1, changed_ids=("c",))
        summary = run_benchmark([ep], OracleScorer(ep.realized_scene), tiny_tax)
        path = tmp_path / "bench.csv"
        write_benchmark_csv(summary, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,planner,mean_distance,std_distance,win_fraction,speedup"
        assert len(lines) == 3

    def test_make_episodes(self, tiny_tax):
        scans = [
            make_graph([make_node("a", attrs=(1,))], scan=f"s{t}", t=t) for t in range(3)
        ]
        episodes = make_episodes({"envA": scans}, n_values=[1, 2])
        assert len(episodes) == 4
        assert {(e.previous_map.scan_id, e.n) for e in episodes} == {
            ("s0", 1),
            ("s0", 2),
            ("s1", 1),
            ("s1", 2),
        }
