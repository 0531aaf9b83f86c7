"""The classical bound: the exact weighted independence number alpha of an
exclusivity graph, with the lexicographically smallest maximum set as its
witness.  The search works on the graph alone; it sits in its own module,
above ``graph`` in the import order, so that it can also use ``theta``.
"""

from __future__ import annotations

import math

from .graph import ExclusivityGraph

__all__ = ["independence_number"]


def independence_number(g: ExclusivityGraph) -> tuple[float, tuple[int, ...]]:
    """Maximum-weight independent set, up to a 1e-9 tie floor: (alpha, witness).

    One branch-and-bound search, on bitset adjacency with a greedy weighted
    clique cover as the pruning bound.  The bitsets label the vertices
    heaviest first (ties by index), so the lowest set bit of a mask is its
    heaviest vertex.  The cover takes one clique at a time: it takes the
    lowest bit, counts its weight for the whole clique, and peels common
    neighbours (lowest first) until none are left; an independent set
    takes at most one vertex per clique.  Before bounding, the search takes
    every forced vertex: one with no neighbour left, or with exactly one
    neighbour no heavier than itself (some maximum set contains it, since
    that set can trade the neighbour for it).  A node checks only the
    vertices whose neighbourhood changed since its parent's check left none
    forced: the neighbours of the removed neighbours after taking a vertex,
    the neighbours of a vertex after dropping it.  It then branches on the
    heaviest vertex left, taking it first.  Open nodes are frames on an
    explicit stack, not nested calls, so only the number of search nodes
    limits the graph size.  The search records the set behind its
    incumbent and returns as soon as the incumbent reaches its goal.

    Run with no goal, it finds the maximum weight.  The witness walks the
    original vertex indices in ascending order and keeps vertex k exactly
    when the same search, with goal that maximum less 1e-9 (relative),
    finds a set holding k and the vertices kept so far.  The walk holds the
    last set found to reach the goal (first the one behind the maximum); a
    vertex in it, or with no neighbour left, is kept without a search.  So
    the witness is the lexicographically smallest set within 1e-9 (relative)
    of the maximum, and alpha is its weight, a correctly rounded sum
    (math.fsum): on an edge weighted 1 and 1 + 1e-10 it is (1.0, (0,)).
    """
    n = g.n
    w = g.weight_tuple
    order = sorted(range(n), key=lambda v: (-w[v], v))  # vertex at each label
    label = [0] * n
    for b, v in enumerate(order):
        label[v] = b
    wt = [w[v] for v in order]
    adj = [0] * n
    for i, j in g.edges:
        adj[label[i]] |= 1 << label[j]
        adj[label[j]] |= 1 << label[i]
    closed = [adj[b] | (1 << b) for b in range(n)]

    def cover_bound(mask: int) -> float:
        ub = 0.0
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            ub += wt[u]
            mask ^= low
            common = mask & adj[u]
            while common:
                low = common & -common
                mask ^= low
                common &= adj[low.bit_length() - 1]
        return ub

    # the last incumbent above top and its set, returned once it reaches goal;
    # a frame (mask, acc, taken, rest) keeps in rest the vertices whose
    # neighbourhood in mask changed since the parent's pass left none forced
    def search(mask: int, acc: float, top: float, goal: float) -> tuple[float, int]:
        best, stack = 0, [(mask, acc, 0, mask)]
        while stack:
            mask, acc, taken, rest = stack.pop()
            while rest:  # take forced vertices; a take rechecks what it touched
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                nb = adj[v] & mask
                if not nb:
                    mask ^= low
                    acc += wt[v]
                    taken |= low
                elif not nb & (nb - 1) and wt[nb.bit_length() - 1] <= wt[v]:
                    mask &= ~(low | nb)
                    acc += wt[v]
                    taken |= low
                    rest = (rest | adj[nb.bit_length() - 1]) & mask
            if acc > top:
                top, best = acc, taken
                if top >= goal:
                    break
            if acc + cover_bound(mask) <= top:  # an empty mask too: acc <= top here
                continue
            low = mask & -mask
            v = low.bit_length() - 1  # heaviest vertex left
            nb = rest = adj[v] & mask
            touched = 0
            while rest:
                u = rest & -rest
                rest ^= u
                touched |= adj[u.bit_length() - 1]
            child = mask & ~closed[v]
            stack.append((mask ^ low, acc, taken, nb))  # exclude v: popped second
            stack.append((child, acc + wt[v], taken | low, touched & child))
        return top, best

    mask = (1 << n) - 1
    top, proof = search(mask, 0.0, 0.0, math.inf)
    goal = top - 1e-9 * top  # the tie floor; top > 0
    # invariant: the kept vertices and proof & mask form a set reaching goal
    acc, witness = 0.0, []
    for k in range(n):
        b = label[k]
        if not (mask >> b) & 1:
            continue
        if adj[b] & mask and not (proof >> b) & 1:
            child = mask & ~closed[b]
            # start just below goal: also prunes what cannot reach goal
            found, best = search(child, acc + w[k], math.nextafter(goal, -math.inf), goal)
            if found < goal:
                mask ^= 1 << b
                continue
            proof = best | (1 << b)
        mask &= ~closed[b]
        acc += w[k]
        witness.append(k)
    return float(math.fsum(w[v] for v in witness)), tuple(witness)
