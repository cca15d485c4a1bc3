"""Active change detection: plan a route that finds n changed objects fast.

A robot holds the previous map of a scene and must visit objects until it
has confirmed n changes against the realized scene. Detection at a visit is
binary and noiseless: an object counts as changed when any of its three
variability labels (position, state, instance) is 1 between the two scans.
Vanished objects are still route targets at their previous-map positions;
visiting the empty spot detects the change.

Two planners are compared. Coverage tours all previous-map objects along a
TSP route. The variability-guided planner first tours the n+3 objects with
the highest predicted change probability (score = max of the three), and
falls back to a Coverage tour over the unvisited remainder, from wherever it
stopped, if that was not enough. Motion is point-to-point Euclidean.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from itertools import compress
from math import comb

import numpy as np

from .core_graph import SceneGraph, Taxonomy, _write_csv, check_position, distance, node_positions
from .dataset import LabelConfig, compute_labels
from .errors import ConfigError, EvaluationError

COVERAGE = "coverage"
VSG_PLANNER = "vsg"

EXACT_TSP_LIMIT = 15


def route_length(points: np.ndarray, start: np.ndarray, order: list[int]) -> float:
    """Total length of the open path start -> points[order[0]] -> ...

    The legs are summed left to right in Python, so the total is the same
    float as a running sum over a precomputed distance matrix.
    """
    pts = np.asarray(points, dtype=np.float64)
    path = np.vstack([np.asarray(start, dtype=np.float64), pts[list(order)]])
    legs = distance(path[1:], path[:-1])
    return float(sum(legs.tolist()))


def held_karp(points: np.ndarray, start: np.ndarray) -> list[int]:
    """Exact open-path TSP from a fixed start, dynamic programming over subsets.

    `cost[j, mask]` is the shortest path from the start through the points
    in `mask` that ends at `j` (inf if `j` is not in `mask`). Row j of
    `ending` holds the masks that contain j, by size and then ascending, so
    the size-k masks are one (n, C(n - 1, k - 1)) column slice `layer`. Each
    size k is filled from size k - 1 in one step: an `np.take` of `cost` at
    `layer ^ (1 << j)` gathers the (i, j, m) block of predecessor costs, the
    leg `step[i, j]` (inf if i == j) is added, and the min over i is kept.

    No parent table is kept: the route is read back from the full mask's
    cheapest endpoint, one point at a time, as the argmin over i of
    `cost[i, mask] + step[i, last]`. Each entry is the same float sum the
    layer's min was taken over, so the argmin's lowest index is the parent
    an argmin during the fill would have stored. Ties thus go to the lowest
    point index at every choice, each predecessor and the final endpoint:
    between equal-length routes the one ending at the lower index wins.

    Memory: an n * 2**n float64 cost table, an n * 2**(n - 1) int64 `ending`
    and one layer block of n * n * C(n - 1, k - 1) float64s at a time, freed
    before the next is gathered. The tracemalloc peak is 12.1 MiB at
    EXACT_TSP_LIMIT = 15 points, the most `solve_tsp` passes; called
    directly past it, 25.6, 56.1 and 118 MiB at 16, 17 and 18 points.
    """
    n = len(points)
    if n == 0:
        return []
    extended = _extended_distances(
        np.asarray(points, dtype=np.float64), np.asarray(start, dtype=np.float64)
    )
    points_idx = np.arange(n)
    step = extended[:n, :n]
    step[points_idx, points_idx] = np.inf  # a point is never its own predecessor
    full = 1 << n
    cost = np.full((n, full), np.inf)
    cost[points_idx, 1 << points_idx] = extended[:n, n]
    # Masks over the other n - 1 points by size (np.bitwise_count needs numpy 2).
    rest = np.arange(full >> 1)
    rest = np.argsort(sum(((rest >> b) & 1 for b in range(n - 1)), np.zeros_like(rest)), kind="stable")
    end = points_idx[:, None]
    low = (1 << end) - 1
    ending = (rest & ~low) << 1 | (1 << end) | (rest & low)  # bit j put into each
    lo = 1  # column 0 is the size-1 mask {j}
    for k in range(2, n + 1):
        layer = ending[:, lo:lo + comb(n - 1, k - 1)]
        lo += layer.shape[1]
        block = np.take(cost, layer ^ (1 << end), axis=1)  # [i, j, m], inf for i outside the mask
        block += step[:, :, None]
        cost[end, layer] = block.min(axis=0)
        del block  # free this layer's block before the next is gathered
    mask = full - 1
    order = [int(np.argmin(cost[:, mask]))]  # argmin takes the lowest index on ties
    for _ in range(n - 1):
        mask ^= 1 << order[-1]
        order.append(int(np.argmin(cost[:, mask] + step[:, order[-1]])))
    order.reverse()
    return order


def _extended_distances(pts: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Pairwise distance matrix with the start appended as virtual index n."""
    stacked = np.vstack([pts, start[None, :]])
    return distance(stacked[:, None, :], stacked[None, :, :])


def _two_opt_bar(n: int) -> np.ndarray:
    """2-opt's move threshold: -1e-12 at i < j, -inf elsewhere (no move)."""
    return np.where(np.arange(n)[:, None] < np.arange(n), -1e-12, -np.inf)


def _two_opt(
    dist: np.ndarray, order: list[int],
    seen: Container[tuple[int, ...]] = (), starts: list[tuple[int, ...]] | None = None,
    bar: np.ndarray | None = None,
) -> list[int]:
    """Apply improving segment reversals until a whole pass finds none.

    `m` is the distance matrix in route order: with `ext` the start index
    followed by the order, `m` equals `dist[ext][:, ext]` after every move,
    because a move reverses `ext[i+1..j+1]` together with the same block of
    m's rows and of its columns. So each scan reads slices of `m` and its
    superdiagonal instead of gathering from `dist`. Every delta entry is the
    same four distances grouped the same way (`a - b`, then `+= c - d`) as a
    gather from `dist` or the scalar loop, so the floats, the moves and the
    route are theirs. `dist` itself is never written. The slices are views
    made once, which the moves keep current, and each scan writes into the
    same delta and mask buffers. `bar` holds `_two_opt_bar(n)`, built here
    if not given (it depends on n alone; `heuristic_tsp` builds it once).

    With `starts` given, the order each pass starts from is appended to it,
    and a pass that would start from an order in `seen` is not run: that
    order is returned as it is.
    """
    n = len(order)
    ext = np.array([dist.shape[0] - 1, *order], dtype=np.int64)
    m = dist[ext[:, None], ext]
    legs = np.diagonal(m, 1)  # a view: legs[p] = m[p, p + 1], kept current by the moves
    # Reverse order[i..j]; legs change at both segment boundaries, except
    # past the tail where the route just ends. delta[i, j] is
    # (m[i, j + 1] - legs[i]) + (m[i + 1, j + 2] - legs[j + 1]).
    head_new, head_old = m[:n, 1:], legs[:, None]
    tail_new, tail_old = m[1:, 2:], legs[1:]
    delta = np.empty((n, n))
    delta_inner, tail = delta[:, :-1], np.empty((n, n - 1))
    bar = _two_opt_bar(n) if bar is None else bar
    hits = np.empty((n, n), dtype=bool)
    flat_hits = hits.ravel()
    last = -1  # flat (i, j) index of this pass's last move; -1 while it has none
    while True:
        if last < 0 and starts is not None:
            if (key := tuple(ext[1:].tolist())) in seen:
                return list(key)
            starts.append(key)
        np.subtract(head_new, head_old, out=delta)
        np.subtract(tail_new, tail_old, out=tail)
        delta_inner += tail
        np.less(delta, bar, out=hits)
        # `last` lies in the strict upper triangle, so the rest is never empty.
        rest = flat_hits[last + 1 :]
        k = int(rest.argmax())
        if rest[k]:
            last += 1 + k
            i, j = divmod(last, n)
            block = slice(i + 1, j + 2)
            ext[block] = ext[block][::-1]
            m[block] = m[block][::-1]
            m[:, block] = m[:, block][:, ::-1]
        elif last >= 0:
            last = -1  # the pass moved something: start another
        else:
            return ext[1:].tolist()


def _or_opt_tables(n: int) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Per run length seg, flat indices into `_or_opt`'s (n + 1, n + 1) `m`.

    Run i holds positions i+1..i+seg of `ext`; without it, the k-th point
    (the start counting as the 0th) sits at pos_k = k while k <= i and at
    k + seg after that. Orientation r puts end e_r of the run (its first
    point, or for r = 1 its last) next to the k-th point and the other end
    f_r next to the (k+1)-th, so `at[i, k, r]` indexes m[pos_k, e_r],
    `joined[i, k, r]` m[f_r, pos_{k+1}] and `broken[i, k]` m[pos_k,
    pos_{k+1}]. A run of one point has one orientation: its reversal is
    the same floats, and the first orientation wins every tie.
    """
    tables = []
    for seg in range(1, min(n, 4)):
        runs = n - seg + 1  # run starts i, and slots k in the order without the run
        i, k = np.ogrid[:runs, :runs]
        pos = np.where(k <= i, k, k + seg)
        ends = np.stack((i + 1, i + seg), axis=-1)[..., : 1 if seg == 1 else 2]
        at = pos[..., None] * (n + 1) + ends
        joined = ends[..., ::-1] * (n + 1) + pos[:, 1:, None]
        tables.append((seg, at, joined, pos[:, :-1] * (n + 1) + pos[:, 1:]))
    return tables


def _or_opt(dist: np.ndarray, order: list[int], tables: list | None = None) -> tuple[list[int], bool]:
    """One first-improvement pass relocating a run of 1-3 points.

    Reads the route-ordered matrix `m` of `_two_opt` through the flat
    indices of `_or_opt_tables(len(order))`, built here unless `tables`
    holds them: they depend on the route length alone, so `heuristic_tsp`
    builds them once per call. Per run length, cost[i, k, r] (run i put
    after the k-th point, as is or reversed) is three gathers grouped as
    `at + (joined - broken)`: the same floats and grouping as a gather from
    `dist` or the scalar loop, so the first hit in (run length, i, k,
    orientation) order is theirs.
    """
    n = len(order)
    ext = np.array([dist.shape[0] - 1, *order], dtype=np.int64)
    m = dist[ext[:, None], ext]
    flat, legs = m.ravel(), np.diagonal(m, 1)
    for seg, at, joined, broken in _or_opt_tables(n) if tables is None else tables:
        gain = legs[: n - seg + 1].copy()
        gain[:-1] += legs[seg:] - np.diagonal(m, seg + 1)
        cost = flat[at]
        cost[:, :-1] += flat[joined] - flat[broken][..., None]
        hits = np.flatnonzero(cost < (gain - 1e-12)[:, None, None])
        if hits.size:
            i, k, flip = np.unravel_index(hits[0], cost.shape)
            piece = order[i : i + seg][:: -1 if flip else 1]
            head = order[:i] + order[i + seg :]
            return head[:k] + piece + head[k:], True
    return order, False


def _local_search(
    dist: np.ndarray, order: list[int], seen: dict[tuple[int, ...], tuple[int, ...]],
    tables: tuple | None = None,
) -> list[int]:
    """Alternate 2-opt and Or-opt until neither move set improves.

    From the order a 2-opt pass starts from, the rest of the search depends
    on that order alone: the pass, the passes after it, then Or-opt and so
    on. Loop heads are pass starts, and so are 2-opt optima (the last pass,
    which applies nothing, starts from one). So `seen` maps every pass
    start of every earlier search to where that search ended, and a search
    whose pass would start from one stops there with the same result.
    `tables`, when given, holds the scans' index tables for this route
    length: 2-opt's `bar` and `_or_opt_tables`.
    """
    bar, or_tables = tables or (None, None)
    starts: list[tuple[int, ...]] = []
    while True:
        order = _two_opt(dist, order, seen, starts, bar)
        if (key := tuple(order)) in seen:
            result = seen[key]
            break
        order, improved = _or_opt(dist, order, or_tables)
        if not improved:
            result = key
            break
    seen.update(dict.fromkeys(starts, result))
    return list(result)


def _nearest_neighbor_routes(dist: np.ndarray) -> list[list[int]]:
    """Row f: the nearest-neighbour route forced to start at point f.

    All n routes grow in one (n, n) argmin per step, visited points masked
    to inf; argmin takes the lowest index on ties, as a scan of the
    unvisited points in ascending order does.
    """
    n = dist.shape[0] - 1
    rows = np.arange(n)
    routes = np.empty((n, n), dtype=np.int64)
    routes[:, 0] = rows
    visited = np.eye(n, dtype=bool)
    for k in range(1, n):
        pick = np.argmin(np.where(visited, np.inf, dist[routes[:, k - 1], :n]), axis=1)
        routes[:, k] = pick
        visited[rows, pick] = True
    return routes.tolist()


def _double_bridge(order: list[int], rng: np.random.Generator) -> list[int]:
    cuts = rng.choice(np.arange(1, len(order)), size=3, replace=False)
    a, b, c = sorted(int(x) for x in cuts)
    return order[:a] + order[b:c] + order[a:b] + order[c:]


_DOUBLE_BRIDGE_KICKS = 10


def heuristic_tsp(points: np.ndarray, start) -> list[int]:
    """Multi-start local search for the open-path TSP.

    Nearest-neighbor construction is run once per forced first point (all
    starting routes are built at once) and each route is polished to a joint
    local optimum of 2-opt (segment reversal) and Or-opt (relocating runs of
    1-3 points, either orientation). The best route then gets a fixed number
    of double-bridge restarts. Acceptance is strict improvement everywhere
    and the kick sequence is seeded, so the result is deterministic in the
    inputs.

    A call remembers the order every 2-opt pass of its searches started
    from (each starting route, each kicked route, each route Or-opt
    improved, the order after each 2-opt pass that moved something, and
    each 2-opt optimum), and a search whose pass would start from one ends
    there with that earlier search's result; the dict lives for the call
    only. Every search is deterministic in its order, so the routes are
    those of running each search in full. A result met before is not
    measured again: it was compared against a best length no lower than
    the current one, so it cannot win now.

    Both move scans are evaluated as numpy arrays but keep a scalar scan's
    order: each applies the first move that shortens the route by more than
    1e-12, 2-opt in (i, j) order resuming after its last move until a pass
    applies none, Or-opt in (run length, i, k, orientation) order. Each scan
    reads its own copy of the distance matrix in route order (2-opt
    reverses a block of its rows and columns per move), never writing the
    matrix all searches share. Which entries they compare depends on n
    alone, so 2-opt's `bar` and Or-opt's index tables are built once per
    call for all its searches; the floats compared are the same.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n <= 1:
        return list(range(n))
    start = np.asarray(start, dtype=np.float64)
    dist = _extended_distances(pts, start)
    best: list[int] = []
    best_len = np.inf
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    measured: set[tuple[int, ...]] = set()
    tables = (_two_opt_bar(n), _or_opt_tables(n))

    def search_and_keep_if_shorter(route: list[int]) -> None:
        nonlocal best, best_len
        order = _local_search(dist, route, seen, tables)
        if (key := tuple(order)) in measured:
            return
        measured.add(key)
        length = route_length(pts, start, order)
        if length < best_len - 1e-12:
            best, best_len = order, length

    for route in _nearest_neighbor_routes(dist):
        search_and_keep_if_shorter(route)
    if n >= 4:  # a double bridge needs three distinct interior cuts
        rng = np.random.default_rng(0)
        for _ in range(_DOUBLE_BRIDGE_KICKS):
            search_and_keep_if_shorter(_double_bridge(best, rng))
    return best


def solve_tsp(points: np.ndarray, start) -> list[int]:
    """Visit order over all points, starting from `start` (not a point).

    Up to EXACT_TSP_LIMIT points the route is optimal (Held-Karp); beyond
    that it comes from the multi-start local search.

    Precondition: every point and the start lie within MAX_COORDINATE, as
    `check_position` guarantees for scene nodes and starts, so no squared
    distance overflows. The solvers do not check it again; far past it
    (near 1e154) a route may not be a permutation.
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        return []
    if len(pts) <= EXACT_TSP_LIMIT:
        return held_karp(pts, start)
    return heuristic_tsp(pts, start)


# ---------------------------------------------------------------------------
# Episodes and planners
# ---------------------------------------------------------------------------


def check_route(graph: SceneGraph, n: int) -> None:
    """A route looks for n >= 1 changes on a non-empty map; else a ConfigError."""
    if n < 1 or graph.num_nodes == 0:
        raise ConfigError(f"a route needs n >= 1 and a non-empty map; got n = {n}, {graph.num_nodes} objects")


def route_start(graph: SceneGraph, start_position=None) -> np.ndarray:
    """Where a route on `graph` starts: `start_position`, or else the map's centroid."""
    if start_position is not None:
        return np.asarray(start_position, dtype=np.float64)
    return graph.positions().mean(axis=0)


@dataclass(frozen=True)
class Episode:
    """One change-detection task: previous map, realized scene, target n."""

    previous_map: SceneGraph
    realized_scene: SceneGraph
    n: int
    start_position: tuple[float, float, float] | None = None
    label_cfg: LabelConfig = LabelConfig()

    def __post_init__(self):
        check_route(self.previous_map, self.n)
        if self.start_position is not None:
            check_position(self.start_position, ConfigError, "start_position")

    def start(self) -> np.ndarray:
        return route_start(self.previous_map, self.start_position)


@dataclass(frozen=True, slots=True)
class EpisodeResult:
    planner: str
    visit_order: tuple[str, ...]  # the visited prefix, in visit order
    distance_traveled: float
    changes_found: int
    fallback_used: bool
    infeasible: bool


def changed_object_ids(ep: Episode, tax: Taxonomy) -> frozenset[str]:
    """Ids of the previous-map objects with any nonzero label row."""
    labels, _ = compute_labels(ep.previous_map, ep.realized_scene, tax, ep.label_cfg)
    return frozenset(compress(ep.previous_map.node_ids, labels.any(axis=1)))


def _walk(route: list[int], changed: set[int], need: int) -> tuple[list[int], int]:
    """The prefix of `route` walked until `need` changed objects are seen,
    and how many it saw."""
    found = 0
    for k, i in enumerate(route):
        found += i in changed
        if found >= need:
            return route[: k + 1], found
    return route, found


def _tour_and_walk(
    ep: Episode, tax: Taxonomy, planner: str, first: list[str],
    tour: list[int] | None, changed: frozenset[str] | None,
) -> EpisodeResult:
    """Walk the route `first`, then, if fewer than n changes were found, a
    TSP tour over the objects not yet visited, from where the first walk
    stopped.

    Coverage is this with an empty first route; for the guided planner the
    tour is the Coverage fallback after its phase-1 route. `tour` (that
    tour's solve_tsp order) and `changed` (`changed_object_ids`) are the
    caller's, or None. A walk's distance is the `route_length` of its prefix.
    """
    graph = ep.previous_map
    ids, positions, start = graph.node_ids, graph.positions(), ep.start()
    changed = changed_object_ids(ep, tax) if changed is None else changed
    changed = {graph.node_index(oid) for oid in changed}
    visited, found = _walk([graph.node_index(oid) for oid in first], changed, ep.n)
    walked = route_length(positions, start, visited)
    fallback = False
    if found < ep.n:
        remaining = sorted(set(range(graph.num_nodes)).difference(visited))
        if remaining:
            fallback = bool(first)
            stop = positions[visited[-1]] if visited else start
            if tour is None:
                tour = solve_tsp(positions[remaining], stop)
            more, found_more = _walk([remaining[k] for k in tour], changed, ep.n - found)
            walked += route_length(positions, stop, more)
            visited, found = visited + more, found + found_more
    return EpisodeResult(
        planner=planner,
        visit_order=tuple(ids[i] for i in visited),
        distance_traveled=walked,
        changes_found=found,
        fallback_used=fallback,
        infeasible=found < ep.n,
    )


def run_coverage(
    ep: Episode, tax: Taxonomy, *, tour: list[int] | None = None, changed: frozenset[str] | None = None
) -> EpisodeResult:
    """TSP tour over every previous-map object, walked until n changes.
    `tour`, if given, is `solve_tsp(ep.previous_map.positions(), ep.start())`
    and `changed`, if given, is `changed_object_ids(ep, tax)`."""
    return _tour_and_walk(ep, tax, COVERAGE, [], tour, changed)


def ranked_route(
    graph: SceneGraph,
    probabilities: dict[str, tuple[float, float, float]],
    n: int,
    start: np.ndarray,
) -> list[str]:
    """Phase-1 route of the guided planner: a TSP tour over the n+3 objects
    most likely to have changed.

    An object's score is the max of its three probabilities, ties broken
    toward the lower object id; the chosen objects keep node order before
    the tour is solved. `check_route` refuses the graph and n, as an
    `Episode` does.
    """
    check_route(graph, n)
    ranked = sorted(probabilities, key=lambda oid: (-max(probabilities[oid]), oid))
    top = set(ranked[: n + 3])
    ids = [oid for oid in graph.node_ids if oid in top]
    return [ids[k] for k in solve_tsp(node_positions(graph.node(oid) for oid in ids), start)]


def run_vsg_planner(
    ep: Episode, model, tax: Taxonomy, *,
    first: list[str] | None = None, changed: frozenset[str] | None = None,
) -> EpisodeResult:
    """Tour the n+3 most change-prone objects first, Coverage as fallback.

    `model` is anything with predict_probabilities(graph, taxonomy). `first`,
    if given, is the phase-1 route: `ranked_route(ep.previous_map, p, ep.n,
    ep.start())` of the model's probabilities p. None ranks the model's
    predictions. `changed` is as in `run_coverage`.
    """
    if first is None:
        probabilities = model.predict_probabilities(ep.previous_map, tax)
        first = ranked_route(ep.previous_map, probabilities, ep.n, ep.start())
    return _tour_and_walk(ep, tax, VSG_PLANNER, first, None, changed)


class OracleScorer:
    """Stands in for a model: probability 1 on the true changes, 0 elsewhere."""

    def __init__(self, realized_scene: SceneGraph, label_cfg: LabelConfig = LabelConfig()):
        self.realized_scene = realized_scene
        self.label_cfg = label_cfg

    def predict_probabilities(self, g: SceneGraph, tax: Taxonomy):
        labels, _ = compute_labels(g, self.realized_scene, tax, self.label_cfg)
        return dict(zip(g.node_ids, map(tuple, labels.tolist())))


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BenchmarkRow:
    n: int
    planner: str
    mean_distance: float
    std_distance: float
    win_fraction: float  # fraction of episodes strictly shorter than the rival
    speedup: float  # mean relative distance reduction vs Coverage


@dataclass(frozen=True, slots=True)
class BenchmarkSummary:
    rows: tuple[BenchmarkRow, ...]
    feasible_episodes: int
    infeasible_episodes: int


def run_benchmark(episodes: list[Episode], model, tax: Taxonomy) -> BenchmarkSummary:
    """Run both planners on every episode and summarize per n.

    Episodes where even the full Coverage tour cannot find n changes are
    excluded from the statistics. The speedup column is relative to the
    Coverage baseline, so Coverage's own rows carry 0.

    The Coverage tour depends on neither n nor the realized scene, so it is
    solved once per (map, start) and shared by the episodes that have both.
    Labels are found once per scan pair and predictions once per map, so a
    model's predict_probabilities must depend on (graph, taxonomy) alone.
    """
    by_n: dict[int, list[tuple[float, float]]] = {}
    infeasible = 0
    tours: dict[tuple[bytes, bytes], list[int]] = {}
    # By graph identity (`episodes` keeps each alive); compare-planners sorts by n.
    changed: dict[tuple[int, int, LabelConfig], frozenset[str]] = {}
    predicted: dict[int, dict[str, tuple[float, float, float]]] = {}
    for ep in episodes:
        key = (ep.previous_map.positions().tobytes(), ep.start().tobytes())
        if key not in tours:
            tours[key] = solve_tsp(ep.previous_map.positions(), ep.start())
        pair = (id(ep.previous_map), id(ep.realized_scene), ep.label_cfg)
        if pair not in changed:
            changed[pair] = changed_object_ids(ep, tax)
        cov = run_coverage(ep, tax, tour=tours[key], changed=changed[pair])
        if cov.infeasible:
            infeasible += 1
            continue
        if pair[0] not in predicted:
            predicted[pair[0]] = model.predict_probabilities(ep.previous_map, tax)
        first = ranked_route(ep.previous_map, predicted[pair[0]], ep.n, ep.start())
        vsg = run_vsg_planner(ep, model, tax, first=first, changed=changed[pair])
        by_n.setdefault(ep.n, []).append((cov.distance_traveled, vsg.distance_traveled))
    if not by_n:
        raise EvaluationError("no feasible episodes: every realized scene had too few changes")
    rows: list[BenchmarkRow] = []
    for n in sorted(by_n):
        pairs = np.array(by_n[n], dtype=np.float64)
        cov_d, vsg_d = pairs[:, 0], pairs[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(cov_d > 0, (cov_d - vsg_d) / cov_d, 0.0)
        for planner, mine, rival, speedup in (
            (COVERAGE, cov_d, vsg_d, 0.0),
            (VSG_PLANNER, vsg_d, cov_d, float(rel.mean())),
        ):
            rows.append(
                BenchmarkRow(
                    n=n,
                    planner=planner,
                    mean_distance=float(mine.mean()),
                    std_distance=float(mine.std()),
                    win_fraction=float((mine < rival).mean()),
                    speedup=speedup,
                )
            )
    total = sum(len(v) for v in by_n.values())
    return BenchmarkSummary(tuple(rows), feasible_episodes=total, infeasible_episodes=infeasible)


def write_benchmark_csv(summary: BenchmarkSummary, path) -> None:
    header = ["n", "planner", "mean_distance", "std_distance", "win_fraction", "speedup"]
    _write_csv(path, header, ([getattr(r, k) for k in header] for r in summary.rows))


def make_episodes(environments: dict[str, list[SceneGraph]], n_values: list[int]) -> list[Episode]:
    """Episodes from every consecutive scan pair of every environment, one
    per requested n, labelled with the default LabelConfig."""
    return [
        Episode(previous_map=scans[t], realized_scene=scans[t + 1], n=n)
        for scans in environments.values()
        for t in range(len(scans) - 1)
        for n in n_values
    ]
