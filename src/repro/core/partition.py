"""Node and region division: the paper's ``nodeDividing`` plus shards.

Two granularities of divide-and-conquer live here:

* :func:`node_dividing` — the paper's per-level worklists.  Nodes are
  grouped by their level (depth from the PIs) and the groups are
  processed in increasing level order.  At division time the nodes of
  one group have no transitive fanin/fanout relations with each other
  (they are all at the same depth), which is what justifies processing
  a group in parallel; rewriting earlier groups can perturb levels, so
  later groups may *drift* into containing related nodes — the
  situation Sections 4.2 and 4.4 of the paper deal with.

* :func:`plan_regions` — whole-graph sharding.  The same Theorem-1
  independence argument extends from levels to TFI/TFO-disjoint
  *regions*: PO cones are grouped into contiguous, size-balanced
  blocks, and every node reaching the POs of exactly one block is
  owned by that block's shard.  Nodes reaching two or more blocks form
  the frozen *boundary* — the conflict-breaking cut between shards
  (cf. "Parallel AIG Refactoring via Conflict Breaking"): they act as
  pseudo-PIs for every shard that reads them and are never rewritten,
  so shards can run the full enumerate/evaluate/replace pipeline
  concurrently without observing each other's mutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..aig import Aig
from ..aig.literals import lit_var
from ..aig.traversal import tfi


def node_dividing(aig: Aig) -> List[List[int]]:
    """Partition live AND nodes into per-level worklists.

    ``result[i]`` holds the nodes whose level was ``i + 1`` at division
    time (level-0 nodes are PIs, which are never rewritten — the paper
    seeds ``Worklists[0]`` with the PIs only because their cuts are
    trivially themselves; we pre-seed those cuts directly instead).

    Buckets are preallocated from :meth:`~repro.aig.graph.Aig.max_level`
    — growing the list one level at a time costs quadratic-ish
    append/extend traffic on the paper's deep benchmarks (``hyp`` is
    24801 levels).
    """
    buckets: List[List[int]] = [[] for _ in range(aig.max_level())]
    level = aig.level
    for var in aig.ands():
        lev = level(var)
        if lev > len(buckets):  # drifted past a stale max_level
            buckets.extend([] for _ in range(lev - len(buckets)))
        buckets[lev - 1].append(var)
    for bucket in buckets:
        bucket.sort()
    return buckets


@dataclass(frozen=True)
class Shard:
    """One TFI/TFO-disjoint region of the graph.

    ``owned`` are the AND vars this shard may rewrite, in topological
    ``(level, id)`` order.  ``support`` are the non-owned vars its
    owned nodes read — PIs plus frozen boundary nodes — which become
    the shard's pseudo-PIs; ``support_life`` pins their life stamps at
    extraction time so the merge can detect id recycling (the Fig. 3
    hazard, lifted from cut leaves to shard inputs).  ``pos`` are the
    ``(po_index, po_literal)`` pairs whose driver the shard owns.
    """

    index: int
    owned: Tuple[int, ...]
    support: Tuple[int, ...]
    support_life: Tuple[int, ...]
    pos: Tuple[Tuple[int, int], ...]
    est_work: int = 0


@dataclass(frozen=True)
class ShardPlan:
    """The full region decomposition of one graph.

    ``boundary`` holds the frozen conflict-breaking nodes (reaching POs
    of two or more shards); ``dangling`` the live ANDs reaching no PO
    at all — neither set is owned by any shard, and both are left
    untouched by a sharded pass (the boundary cleanup pass sweeps both
    afterwards).  ``po_groups`` records which PO-cone group each output
    was assigned to (diagnostics: a group whose every PO driver landed
    on the boundary produces no shard, so this is the only place the
    full grouping survives).  ``rotation`` echoes the seam-rotation
    seed the plan was built with.
    """

    num_shards: int
    shards: Tuple[Shard, ...]
    boundary: FrozenSet[int]
    dangling: FrozenSet[int]
    po_groups: Tuple[int, ...] = ()
    rotation: int = 0


def merge_work_estimates(aig: Aig, max_cuts: int = 12) -> Dict[int, int]:
    """Per-node merge-work proxy: estimated cut-pair products.

    One topological pass propagates an estimated cut count per node,
    ``est[v] = min(max_cuts, est[f0] * est[f1] + 1)`` (the trivial cut
    plus the merged pairs, saturated at the enumerator's ``max_cuts``
    quota exactly as :class:`~repro.cuts.manager.CutManager` saturates
    its cut sets), and records ``work[v] = est[f0] * est[f1]`` — the
    number of cross-product merges the enumerator will attempt at
    ``v``.  PIs and constants contribute a single (trivial) cut.
    """
    est: Dict[int, int] = {}
    work: Dict[int, int] = {}
    fanin0 = aig.fanin0
    fanin1 = aig.fanin1
    for v in aig.topo_ands():
        e0 = est.get(lit_var(fanin0(v)), 1)
        e1 = est.get(lit_var(fanin1(v)), 1)
        pairs = e0 * e1
        work[v] = pairs
        est[v] = min(max_cuts, pairs + 1)
    return work


def _rotated_po_order(num_pos: int, rotation: int) -> List[int]:
    """Deterministic PO visit order for seam-rotation pass ``rotation``.

    Pass 0 keeps index order.  Later passes rotate the ring of POs by a
    stride chosen coprime-ish to the count (roughly ``2/5`` of the ring,
    so successive passes land far from each other), which moves the
    contiguous-group split points — and with them the frozen boundary —
    onto different nodes.
    """
    if rotation == 0 or num_pos < 2:
        return list(range(num_pos))
    stride = 2 * num_pos // 5 + 1
    shift = (rotation * stride) % num_pos
    return [(i + shift) % num_pos for i in range(num_pos)]


def plan_regions(
    aig: Aig,
    num_shards: int,
    min_nodes: int = 1,
    rotation: int = 0,
    max_cuts: int = 12,
) -> Tuple[Optional[ShardPlan], Optional[str]]:
    """Split ``aig`` into up to ``num_shards`` TFI/TFO-disjoint shards.

    Returns ``(plan, None)`` on success, or ``(None, reason)`` whenever
    sharding is degenerate — fewer than two usable PO-cone groups
    (empty graph, a single cone, more shards requested than cones
    exist, or a graph too small for every shard to reach ``min_nodes``
    owned nodes) — and the caller falls back to the unsharded pipeline.

    The decomposition is deterministic per ``(graph, num_shards,
    min_nodes, rotation)``: PO cones are walked in rotated index order
    and grouped into contiguous blocks balanced by *incremental* merge
    work (estimated cut-pair counts, not raw cone size — stragglers in
    the ``sharded_rewrite`` bench were shards whose equal node share
    carried an outsized share of cut merges), then one
    reverse-topological pass labels every node with the set of groups
    whose POs it reaches.  Single-label nodes are owned by that group;
    multi-label nodes are the frozen boundary.  Ownership is closed
    under fanout by construction (a fanout of an owned node carries a
    superset of no other group's label), which is exactly the
    TFI/TFO-disjointness Theorem 1 needs.

    ``rotation`` is the seam-rotation seed: it permutes the PO visit
    order (see :func:`_rotated_po_order`), so a multi-pass sharded run
    freezes a *different* boundary each pass and later passes get to
    rewrite nodes earlier passes froze.
    """
    if num_shards < 2:
        return None, "single_shard"
    pos = aig.pos
    if len(pos) < 2:
        return None, "too_few_pos"
    if aig.num_ands == 0:
        return None, "no_reachable_ands"

    # 1. Per-node merge-work estimates, then marginal cone cost per PO
    # (work of new AND nodes not seen by earlier POs in rotated order)
    # — one O(N + E) sweep, and `seen` doubles as the live set.
    node_work = merge_work_estimates(aig, max_cuts)
    po_order = _rotated_po_order(len(pos), rotation)
    seen: set = set()
    po_cost: Dict[int, int] = {}
    po_size: Dict[int, int] = {}
    is_and = aig.is_and
    fanin0 = aig.fanin0
    fanin1 = aig.fanin1
    for po_index in po_order:
        fresh_work = 0
        fresh_nodes = 0
        stack = [lit_var(pos[po_index])]
        while stack:
            v = stack.pop()
            if v in seen or not is_and(v):
                continue
            seen.add(v)
            fresh_nodes += 1
            fresh_work += node_work.get(v, 1)
            stack.append(lit_var(fanin0(v)))
            stack.append(lit_var(fanin1(v)))
        po_cost[po_index] = fresh_work
        po_size[po_index] = fresh_nodes
    total_nodes = len(seen)
    if total_nodes == 0:
        return None, "no_reachable_ands"
    total_work = sum(po_cost.values())

    # 2. Effective shard count: never more groups than PO cones, and
    # never so many that a balanced shard would fall under min_nodes
    # (the floor stays in node counts — min_nodes bounds per-shard
    # fixed overhead, which scales with nodes, not merge pairs).
    n = min(num_shards, len(pos))
    if min_nodes > 1:
        n = min(n, max(1, total_nodes // min_nodes))
        if n < 2:
            return None, "min_nodes_floor"
    if n < 2:
        return None, "too_few_pos"

    # 3. Contiguous PO blocks (contiguous in *rotated* order) balanced
    # by cumulative estimated merge work.
    groups: List[List[int]] = [[] for _ in range(n)]
    g = 0
    cum = 0
    for po_index in po_order:
        while g < n - 1 and cum >= total_work * (g + 1) / n:
            g += 1
        groups[g].append(po_index)
        cum += po_cost[po_index]

    # 4. Reverse-topological group labelling.  ``labels[v]`` is the
    # bitmask of groups whose POs node v reaches; fanouts always sit
    # at strictly higher levels than their fanins, so walking
    # ``topo_ands()`` backwards visits every reader of v before v.
    labels: Dict[int, int] = {}
    for g_idx, group in enumerate(groups):
        bit = 1 << g_idx
        for po_index in group:
            v = lit_var(pos[po_index])
            if is_and(v):
                labels[v] = labels.get(v, 0) | bit
    for v in reversed(aig.topo_ands()):
        lab = labels.get(v, 0)
        if not lab:
            continue
        for fl in (fanin0(v), fanin1(v)):
            fv = lit_var(fl)
            if is_and(fv):
                labels[fv] = labels.get(fv, 0) | lab

    owned_lists: List[List[int]] = [[] for _ in range(n)]
    boundary: set = set()
    for v, lab in labels.items():
        if lab & (lab - 1):
            boundary.add(v)
        else:
            owned_lists[lab.bit_length() - 1].append(v)

    # 5. Assemble shards (dropping empty groups); require at least two
    # real shards for the decomposition to be worth anything.
    level = aig.level
    life_stamp = aig.life_stamp
    is_const = aig.is_const
    shards: List[Shard] = []
    for g_idx in range(n):
        owned_list = owned_lists[g_idx]
        if not owned_list:
            continue
        owned_set = set(owned_list)
        owned = tuple(sorted(owned_list, key=lambda v: (level(v), v)))
        support_set: set = set()
        for v in owned:
            for fl in (fanin0(v), fanin1(v)):
                fv = lit_var(fl)
                if fv not in owned_set and not is_const(fv):
                    support_set.add(fv)
        support = tuple(sorted(support_set))
        shard_pos = tuple(
            (po_index, pos[po_index])
            for po_index in groups[g_idx]
            if lit_var(pos[po_index]) in owned_set
        )
        if not shard_pos:
            continue
        shards.append(
            Shard(
                index=len(shards),
                owned=owned,
                support=support,
                support_life=tuple(life_stamp(v) for v in support),
                pos=shard_pos,
                est_work=sum(node_work.get(v, 1) for v in owned),
            )
        )
    if len(shards) < 2:
        return None, "too_few_regions"

    dangling = frozenset(
        v for v in aig.ands() if v not in seen
    )
    po_groups = [0] * len(pos)
    for g_idx, group in enumerate(groups):
        for po_index in group:
            po_groups[po_index] = g_idx
    plan = ShardPlan(
        num_shards=len(shards),
        shards=tuple(shards),
        boundary=frozenset(boundary),
        dangling=dangling,
        po_groups=tuple(po_groups),
        rotation=rotation,
    )
    return plan, None


def cleanup_region(aig: Aig, targets: Iterable[int]) -> Set[int]:
    """The restricted worklist for the sequential boundary cleanup pass.

    ``targets`` are former boundary and dangling nodes.  The region is
    the live ANDs among the targets themselves, their transitive fanin
    (so seam-crossing cuts rooted at a target see refreshed fanin
    structure), and their *direct* fanouts (the first readers across
    the old seam, whose best cuts straddle it).  Going deeper into the
    fanout cone would re-run most of the graph and erase the sharding
    speedup; one reader layer is where the frozen-seam loss
    concentrates.
    """
    roots = [v for v in targets if aig.is_and(v) and not aig.is_dead(v)]
    region: Set[int] = set()
    for v in tfi(aig, roots):
        if aig.is_and(v) and not aig.is_dead(v):
            region.add(v)
    for v in roots:
        for reader in aig.fanouts(v):
            if aig.is_and(reader) and not aig.is_dead(reader):
                region.add(reader)
    return region
