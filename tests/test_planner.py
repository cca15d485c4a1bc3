"""TSP solvers against brute force, the two planners on hand-traced
fixtures, the oracle scorer, and the benchmark summary."""

import itertools
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
    route_length,
    run_benchmark,
    run_coverage,
    run_vsg_planner,
    solve_tsp,
    write_benchmark_csv,
)
from vsg.planner import (
    EXACT_TSP_LIMIT,
    _extended_distances,
    _forced_nearest_neighbor,
    _two_opt,
)

from conftest import make_graph, make_node


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
        # heuristic_tsp compares candidate routes by route_length, so it must
        # equal, float for float, the left-to-right sum of distance-matrix legs.
        rng = np.random.default_rng(7)
        for n in range(12):
            points = rng.uniform(-10, 10, size=(n, 3))
            start = rng.uniform(-10, 10, size=3)
            order = [int(k) for k in rng.permutation(n)]
            dist = _extended_distances(points, start)
            expected, prev = 0.0, n
            for k in order:
                expected, prev = expected + dist[prev, k], k
            assert route_length(points, start, order) == expected, n

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

    @pytest.mark.parametrize("make_points", [_uniform_3d, _uniform_2d, _duplicated, _integer_grid])
    def test_exact_matches_loop_reference(self, make_points):
        rng = np.random.default_rng(11)
        for n in range(13):
            points, start = make_points(rng, n)
            assert held_karp(points, start) == held_karp_loop(points, start), n

    def test_exact_memory_at_limit(self):
        # The two DP tables alone are 2 * 2**15 * 15 * 8 bytes = 7.5 MiB.
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
            before = _forced_nearest_neighbor(dist, trial)
            after = _two_opt(dist, list(before))
            assert sorted(after) == list(range(12))
            assert route_length(points, start, after) <= route_length(
                points, start, before
            ) + 1e-12

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

    def test_default_start_is_map_centroid(self, tiny_tax):
        ep = line_episode(tiny_tax)
        centroid_ep = Episode(ep.previous_map, ep.realized_scene, n=1)
        npt.assert_allclose(centroid_ep.start(), [2.0, 0.0, 0.0])


class UniformScorer:
    """Equal score everywhere; selection then falls to the id tie-break."""

    def __init__(self, value=0.5):
        self.value = value

    def predict_probabilities(self, g, tax):
        return {oid: (self.value,) * 3 for oid in g.node_ids}


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


class TestBenchmark:
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
