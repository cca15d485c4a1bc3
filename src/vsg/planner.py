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

A walk's length is `route_length`: its legs, each the `distance` of two
coordinates, summed left to right. Distance matrices live inside the two
solvers only. Each episode is walked by a `_MapContext` of its map and
start, which builds the Coverage tour and the phase-1 routes when first
needed. The runners build one per call unless given one; the benchmark and
`vsg plan` give one per map and start.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Sequence
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import compress
from math import comb, isfinite

import numpy as np

from .core_graph import SceneGraph, Taxonomy, _write_csv, check_count, check_position, distance
from .dataset import LabelConfig, compute_labels
from .errors import ConfigError, EvaluationError

COVERAGE = "coverage"
VSG_PLANNER = "vsg"

EXACT_TSP_LIMIT = 15


def route_length(points: np.ndarray, start: np.ndarray, order: list[int]) -> float:
    """Total length of the open path start -> points[order[0]] -> ...

    The package's one length rule: the `_legs` summed left to right in
    Python, the same float as the running sum of the legs read off
    `_extended_distances(points, start)`. No matrix is built: a call takes
    memory linear in the route.
    """
    return float(sum(_legs(points, start, order)))


def _legs(points: np.ndarray, start: np.ndarray, order: list[int]) -> list[float]:
    """The legs of the open path start -> points[order[0]] -> ..., in order."""
    pts = np.asarray(points, dtype=np.float64)
    path = np.concatenate((np.asarray(start, dtype=np.float64)[None], pts[list(order)]))
    return distance(path[1:], path[:-1]).tolist()


def held_karp(points: np.ndarray, start: np.ndarray) -> list[int]:
    """Exact open-path TSP from a fixed start, dynamic programming over subsets.

    A `_held_karp_fill` of the points followed by a `_held_karp_route` over
    all of them. Ties go to the lowest point index at every choice, each
    predecessor and the final endpoint: between equal-length routes the one
    ending at the lower index wins.

    Memory: the fill's n * 2**n float64 cost table, an n * 2**(n - 1) int64
    `prev` and one layer block of n * n * C(n - 1, k - 1) float64s at a
    time. The tracemalloc peak is 12.5 MiB at EXACT_TSP_LIMIT = 15 points,
    the most `solve_tsp` passes; called directly past it, 26.4, 57.8 and
    122 MiB at 16, 17 and 18 points.
    """
    n = len(points)
    if n == 0:
        return []
    return _held_karp_route(_held_karp_fill(points, start), range(n))


def _held_karp_fill(points: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Held-Karp's table over n >= 1 points: `(step, cost)`.

    `step` is the (n, n) point block of `_extended_distances(points, start)`
    with inf on the diagonal (a point is never its own predecessor); the
    matrix itself is not kept. `cost[j, mask]` is the shortest path from the
    start through the points in `mask` that ends at `j` (inf if `j` is not
    in `mask`). Row j of `prev`, built once per call, holds the masks
    without bit j by size and then ascending, so the predecessors of the
    size-k masks ending at j are one (n, C(n - 1, k - 1)) column slice. Each
    size k is filled from size k - 1 in one step: an `np.take` of `cost` at that
    slice gathers the (i, j, m) block of predecessor costs, the leg
    `step[i, j]` is added, and the min over i is written to
    `cost[j, mask | 1 << j]` through flat indices, the slice plus
    (1 << j) + j * 2**n. Each layer's block is freed before the next is
    gathered, and the write indices are made per layer, not kept.
    """
    n = len(points)
    dist = _extended_distances(
        np.asarray(points, dtype=np.float64), np.asarray(start, dtype=np.float64)
    )
    points_idx = np.arange(n)
    step = dist[:n, :n].copy()
    step[points_idx, points_idx] = np.inf
    full = 1 << n
    cost = np.full((n, full), np.inf)
    cost[points_idx, 1 << points_idx] = dist[:n, n]
    # Masks over the other n - 1 points by size: size[m] = size[m without its top bit] + 1.
    size = np.zeros(full >> 1, dtype=np.uint8)  # a small key: the stable argsort is a radix sort
    for b in range(n - 1):
        size[1 << b : 2 << b] = size[: 1 << b] + 1
    rest = np.argsort(size, kind="stable")
    end = points_idx[:, None]
    prev = rest + (rest >> end << end)  # a zero put in at bit j: bits >= j move up one
    legs = step[:, :, None]
    into = (1 << end) + end * full  # flat offset of cost[j, 1 << j]
    flat = cost.ravel()
    lo = 1  # column 0 is the empty mask, whose size-1 successor {j} is set above
    for k in range(2, n + 1):
        before = prev[:, lo:lo + comb(n - 1, k - 1)]
        lo += before.shape[1]
        block = np.take(cost, before, axis=1)  # [i, j, m], inf for i outside the mask
        block += legs
        flat[before + into] = block.min(axis=0)
        del block  # free this layer's block before the next is gathered
    return step, cost


def _held_karp_route(table: tuple[np.ndarray, np.ndarray], members: Sequence[int]) -> list[int]:
    """The exact route over the point indices `members` (ascending, no
    repeats) of a `_held_karp_fill` table, in those indices.

    No parent table is kept: the route is read back from the members' mask,
    one point at a time from its cheapest endpoint, as the argmin over i of
    `cost[i, mask] + step[i, last]`. Each entry is the same float sum the
    fill's min was taken over, so the argmin's lowest index is the parent
    an argmin during the fill would have stored.

    For members M this is `held_karp` on those points alone, mapped through
    M: `cost[j, M]` is the min over the same sums of the same legs that M's
    own table holds, every row outside M is inf, and the map from subset
    indices to point indices is increasing, so each argmin tie resolves the
    same way.
    """
    step, cost = table
    mask = sum(1 << i for i in members)
    if not mask:
        return []
    order = [int(np.argmin(cost[:, mask]))]  # argmin takes the lowest index on ties
    for _ in range(len(members) - 1):
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
    call for all its searches; the floats compared are the same. Each
    search result is measured by `route_length`.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n <= 1:
        return list(range(n))
    dist = _extended_distances(pts, np.asarray(start, dtype=np.float64))
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
    """A route looks for n >= 1 changes (a `check_count` count) on a non-empty map; else a ConfigError."""
    try:
        check_count(n, 1, "n")
    except ConfigError as e:
        raise ConfigError(f"a route needs n >= 1 and a non-empty map; {e}") from None
    if graph.num_nodes == 0:
        raise ConfigError(f"a route needs n >= 1 and a non-empty map; got n = {n}, 0 objects")


def route_start(positions: np.ndarray, start_position=None) -> np.ndarray:
    """Where a route on a map starts: `start_position`, or else the centroid
    of the map's `positions`."""
    if start_position is not None:
        return np.asarray(start_position, dtype=np.float64)
    return positions.mean(axis=0)


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
            start = check_position(self.start_position, ConfigError, "start_position")
            object.__setattr__(self, "start_position", start)

    def start(self) -> np.ndarray:
        return route_start(self.previous_map.positions(), self.start_position)


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


class _MapContext:
    """One map's episode state from one start: `tour`, Coverage's
    `solve_tsp(positions, start)` built when first needed, read back on a
    map of at most EXACT_TSP_LIMIT objects from a `_held_karp_fill` table
    kept as `table` (else None)."""

    def __init__(self, graph: SceneGraph, positions: np.ndarray, start_position=None):
        self.graph, self.positions, self.table = graph, positions, None
        self.start = route_start(positions, start_position)

    @cached_property
    def tour(self) -> list[int]:
        if len(self.positions) > EXACT_TSP_LIMIT:
            return solve_tsp(self.positions, self.start)
        self.table = _held_karp_fill(self.positions, self.start)
        return _held_karp_route(self.table, range(len(self.positions)))

    def phase1(self, probabilities: dict[str, tuple[float, float, float]], n: int) -> list[str]:
        """`ranked_route` from this start, read back from the table if there
        is one: on at most EXACT_TSP_LIMIT objects, the same route as
        `solve_tsp` on the chosen ones. Scores not keyed by exactly the
        map's ids, or not finite, are a ConfigError naming the first such
        id (the map's ids in node order, then extra keys)."""
        graph, ids = self.graph, self.graph.node_ids
        for oid in ids:
            p = probabilities.get(oid)
            if p is None or not all(map(isfinite, p)):
                raise ConfigError(f"phase-1 scores: object {oid!r} of scan {graph.scan_id!r} has "
                                  f"{'none' if p is None else p}, not three finite probabilities")
        if len(probabilities) > len(ids):
            oid = next(oid for oid in probabilities if not graph.has_node(oid))
            raise ConfigError(f"phase-1 scores: {oid!r} is not an object of scan {graph.scan_id!r}")
        ranked = sorted(probabilities, key=lambda oid: (-max(probabilities[oid]), oid))
        top = set(ranked[: n + 3])
        chosen = [i for i, oid in enumerate(ids) if oid in top]
        if self.table is not None:
            return [ids[i] for i in _held_karp_route(self.table, chosen)]
        return [ids[chosen[k]] for k in solve_tsp(self.positions[chosen], self.start)]

    def walk(self, ep: Episode, tax: Taxonomy, planner: str, first: list[str],
             changed: frozenset[str] | None = None) -> EpisodeResult:
        """Walk the route `first`, then, if fewer than n changes were found,
        a TSP tour over the objects not yet visited from where it stopped:
        `tour` if nothing was. Coverage is this with an empty `first`. A
        route that repeats an object, or a `tour` (set by the caller, say)
        that is not a permutation of the map's indices, is a ConfigError;
        `changed` is `changed_object_ids(ep, tax)` or None. The distance is
        one `_legs` call over both walks from the start, each walk's legs
        summed apart and the two sums added."""
        graph, ids = self.graph, self.graph.node_ids
        route = [graph.node_index(oid) for oid in first]
        if len(set(route)) < len(route):
            raise ConfigError(f"a {planner} route visits each object once: got first route {first}")
        changed = changed_object_ids(ep, tax) if changed is None else changed
        changed = {graph.node_index(oid) for oid in changed}
        visited, found = _walk(route, changed, ep.n)
        remaining = sorted(set(range(graph.num_nodes)).difference(visited)) if found < ep.n else []
        more = []
        if remaining:
            tour = solve_tsp(self.positions[remaining], self.positions[visited[-1]]) if visited else self.tour
            if not visited and sorted(tour) != remaining:  # here `remaining` is every index
                raise ConfigError(f"a {planner} tour visits each object once: got tour {tour}")
            more, found_more = _walk([remaining[k] for k in tour], changed, ep.n - found)
            found += found_more
        legs = _legs(self.positions, self.start, visited + more)
        walked = float(sum(legs[: len(visited)]) + sum(legs[len(visited) :]))
        visit_order = tuple(ids[i] for i in visited + more)
        return EpisodeResult(planner, visit_order, walked, found, bool(first and remaining), found < ep.n)

    def run(self, ep: Episode, tax: Taxonomy, changed: frozenset[str], predict: Callable[[], dict],
            guide_infeasible: bool) -> tuple[EpisodeResult, EpisodeResult | None, list[str] | None]:
        """One episode: the Coverage result, the guided planner's and its
        phase-1 route. `changed` is `changed_object_ids(ep, tax)`; `predict()`
        gives the map's probabilities, asked for only when the guided planner
        runs, which on an infeasible episode is only if `guide_infeasible`
        (else the last two are None)."""
        cov = run_coverage(ep, tax, changed=changed, context=self)
        if cov.infeasible and not guide_infeasible:
            return cov, None, None
        first = self.phase1(predict(), ep.n)  # given `first`, run_vsg_planner asks no model
        vsg = run_vsg_planner(ep, None, tax, first=first, changed=changed, context=self)
        return cov, vsg, first


def run_coverage(
    ep: Episode, tax: Taxonomy, *, changed: frozenset[str] | None = None, context: _MapContext | None = None,
) -> EpisodeResult:
    """TSP tour over every previous-map object, walked until n changes.

    `changed`, if given, is `changed_object_ids(ep, tax)`; `context`, if
    given, is a `_MapContext` of the episode's previous map and start,
    whose tour serves the next episode too."""
    context = context or _MapContext(ep.previous_map, ep.previous_map.positions(), ep.start_position)
    return context.walk(ep, tax, COVERAGE, [], changed)


def ranked_route(
    graph: SceneGraph, probabilities: dict[str, tuple[float, float, float]], n: int, start: np.ndarray,
) -> list[str]:
    """Phase-1 route of the guided planner: a TSP tour over the n+3 objects
    most likely to have changed.

    An object's score is the max of its three probabilities, ties broken
    toward the lower object id; the chosen objects keep node order before
    the tour is solved. `check_route` refuses the graph and n, as an
    `Episode` does; probabilities keyed by anything but exactly the map's
    object ids, or not finite, are a ConfigError naming the first such id.
    """
    check_route(graph, n)
    return _MapContext(graph, graph.positions(), start).phase1(probabilities, n)


def run_vsg_planner(
    ep: Episode, model, tax: Taxonomy, *,
    first: list[str] | None = None, changed: frozenset[str] | None = None, context: _MapContext | None = None,
) -> EpisodeResult:
    """Tour the n+3 most change-prone objects first, Coverage as fallback.

    `model` is anything with predict_probabilities(graph, taxonomy). `first`,
    if given, is the phase-1 route: `ranked_route(ep.previous_map, p, ep.n,
    ep.start())` of the model's probabilities p; a route that repeats an
    object is a ConfigError. None ranks the model's predictions. `changed`
    and `context` are as in `run_coverage`.
    """
    context = context or _MapContext(ep.previous_map, ep.previous_map.positions(), ep.start_position)
    if first is None:
        first = context.phase1(model.predict_probabilities(ep.previous_map, tax), ep.n)
    return context.walk(ep, tax, VSG_PLANNER, first, changed)


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
    excluded from the statistics, and the guided planner skips them. The
    speedup column is relative to the Coverage baseline, so Coverage's own
    rows carry 0.

    The episodes are run one map (by graph identity) at a time, then one
    start at a time, in order of first appearance, through one `_MapContext`
    per (map, start), dropped before the next is built: what is kept beyond
    the episodes' two distances does not grow with the number of maps. A
    map's labels per scan pair and predictions are made once, so a model's
    predict_probabilities must depend on (graph, taxonomy) alone.

    Each n is summarized, in episode order, from one C-contiguous (2, k)
    array of its k distances, Coverage's row then the guided planner's:
    one mean, std and win fraction over both rows, row by row the same
    floats as those of each planner's own 1-D array.
    """
    # Episode indices by map (graph identity; `episodes` keeps each alive), then by start.
    maps: dict[int, tuple[SceneGraph, dict[tuple[float, float, float] | None, list[int]]]] = {}
    for k, ep in enumerate(episodes):
        _, by_start = maps.setdefault(id(ep.previous_map), (ep.previous_map, {}))
        by_start.setdefault(ep.start_position, []).append(k)
    walked: list[tuple[float, float] | None] = [None] * len(episodes)  # None: infeasible
    for graph, by_start in maps.values():
        positions = graph.positions()
        changed: dict[tuple[int, LabelConfig], frozenset[str]] = {}
        predict = cache(partial(model.predict_probabilities, graph, tax))  # once per map, when first needed
        for start_position, members in by_start.items():
            ctx = _MapContext(graph, positions, start_position)
            for k in members:
                ep = episodes[k]
                pair = (id(ep.realized_scene), ep.label_cfg)
                if pair not in changed:
                    changed[pair] = changed_object_ids(ep, tax)
                cov, vsg, _ = ctx.run(ep, tax, changed[pair], predict, guide_infeasible=False)
                if vsg is not None:
                    walked[k] = cov.distance_traveled, vsg.distance_traveled
            del ctx  # free this start's table before the next is filled
    by_n: dict[int, tuple[list[float], list[float]]] = {}  # Coverage's distances, then the guided planner's
    for ep, distances in zip(episodes, walked):
        if distances is not None:
            for column, d in zip(by_n.setdefault(ep.n, ([], [])), distances):
                column.append(d)
    if not by_n:
        raise EvaluationError("no feasible episodes: every realized scene had too few changes")
    rows: list[BenchmarkRow] = []
    for n in sorted(by_n):
        d = np.array(by_n[n], dtype=np.float64)  # (2, k), C-contiguous: Coverage, then guided
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(d[0] > 0, (d[0] - d[1]) / d[0], 0.0)
        means, stds = d.mean(axis=1).tolist(), d.std(axis=1).tolist()
        wins = (d < d[::-1]).mean(axis=1).tolist()  # each row against its rival
        for r, (planner, speedup) in enumerate(((COVERAGE, 0.0), (VSG_PLANNER, float(rel.mean())))):
            rows.append(BenchmarkRow(n, planner, means[r], stds[r], wins[r], speedup))
    infeasible = walked.count(None)
    return BenchmarkSummary(tuple(rows), len(episodes) - infeasible, infeasible)


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
