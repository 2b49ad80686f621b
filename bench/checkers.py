"""Independent checkers for the benchmark's outputs.

Each function recomputes one quantity from its definition and shares no code
with the fingerbound package, so a fast path in the package that goes wrong
shows up here as a mismatch. Points are (key, time) tuples; trees are given as
1-indexed parent and depth arrays with entry 0 unused.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import combinations

MAX_ENUM_N = 7


def staircase_costs(keys):
    """Greedy per-access costs, replayed row by row with a linear scan.

    At an access to x, a key y seen before is touched again exactly when its
    last-touch time is strictly above x's own and above that of every key
    between x and y. A key never touched has time 0 and never qualifies, so
    the scan runs over the keys seen so far: each row is linear in their
    number, which is at most the keyspace size.
    """
    seen: list[int] = []
    last: dict[int, int] = {}
    costs = []
    for t, x in enumerate(keys, start=1):
        i = bisect_left(seen, x)
        if i == len(seen) or seen[i] != x:
            seen.insert(i, x)
            last[x] = 0
        own = last[x]
        row = [x]
        for side in (range(i - 1, -1, -1), range(i + 1, len(seen))):
            best = own
            for j in side:
                tj = last[seen[j]]
                if tj > best:
                    row.append(seen[j])
                    best = tj
        for y in row:
            last[y] = t
        costs.append(len(row))
    return costs


def first_empty_rectangle(points):
    """First pair of points, with distinct keys and distinct times, whose
    closed rectangle holds no third point of the set; None if there is none.

    Brute force over every pair and every candidate third point: cubic, so
    meant for a few hundred points at most.
    """
    pts = sorted(set(points), key=lambda p: (p[1], p[0]))
    for a, b in combinations(pts, 2):
        (ka, ta), (kb, tb) = a, b
        if ka == kb or ta == tb:
            continue
        klo, khi = min(ka, kb), max(ka, kb)
        if not any(klo <= k <= khi and ta <= t <= tb and (k, t) != a and (k, t) != b
                   for k, t in pts):
            return a, b
    return None


def equal_terms(keys):
    """Equal-weight finger terms; the first access is its own finger."""
    return [1.0] + [1.0 + math.log2(abs(cur - prev) + 1) for prev, cur in zip(keys, keys[1:])]


def weighted_terms(weights, keys, start):
    """Weighted finger terms with every range weight summed exactly rounded.

    weights[k - 1] is the weight of key k. start is "self" (the first term is
    1) or "root" (the first term is 1 + log2(W / w_first)).
    """
    first = weights[keys[0] - 1]
    terms = [1.0 if start == "self" else 1.0 + math.log2(math.fsum(weights) / first)]
    for prev, cur in zip(keys, keys[1:]):
        lo, hi = min(prev, cur), max(prev, cur)
        den = min(weights[prev - 1], weights[cur - 1])
        terms.append(1.0 + math.log2(math.fsum(weights[lo - 1:hi]) / den))
    return terms


def path_nodes(parent, depth, a, b):
    """Nodes on the tree path from a to b, inclusive, by climbing parents."""
    count = 1
    while a != b:
        if depth[a] < depth[b]:
            a, b = b, a
        a = parent[a]
        count += 1
    return count


def static_finger_costs(parent, depth, keys):
    """Finger costs on a fixed tree: the first access walks from the root,
    each later one from the previous accessed node."""
    costs = [depth[keys[0]] + 1]
    costs.extend(path_nodes(parent, depth, a, b) for a, b in zip(keys, keys[1:]))
    return costs


def tree_arrays(n, left, right, root):
    """Parent and depth arrays of a tree given by child arrays, after checking
    that it is a BST over exactly 1..n. Raises ValueError otherwise."""
    parent = [0] * (n + 1)
    depth = [0] * (n + 1)
    order = []
    expanded = 0
    stack = [(root, False)]
    while stack:
        node, visited = stack.pop()
        if visited:
            order.append(node)
            continue
        expanded += 1
        if expanded > n:
            raise ValueError("tree links form a cycle or repeat a node")
        if right[node]:
            parent[right[node]] = node
            depth[right[node]] = depth[node] + 1
            stack.append((right[node], False))
        stack.append((node, True))
        if left[node]:
            parent[left[node]] = node
            depth[left[node]] = depth[node] + 1
            stack.append((left[node], False))
    if order != list(range(1, n + 1)):
        raise ValueError("in-order traversal is not 1..n")
    return parent, depth


def children_from_parents(n, parent):
    """Child arrays and root of the tree given by a parent array
    (parent 0 marks the root). Raises ValueError on a malformed array."""
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    roots = [k for k in range(1, n + 1) if parent[k] == 0]
    if len(roots) != 1:
        raise ValueError(f"expected one root, found {len(roots)}")
    for k in range(1, n + 1):
        p = parent[k]
        if p:
            side = left if k < p else right
            if side[p]:
                raise ValueError(f"node {p} has two children on one side")
            side[p] = k
    return left, right, roots[0]


def _shapes(lo, hi):
    """Every BST over lo..hi as its root and its (child, parent) edges."""
    if lo > hi:
        yield 0, []
        return
    for r in range(lo, hi + 1):
        for lroot, ledges in _shapes(lo, r - 1):
            for rroot, redges in _shapes(r + 1, hi):
                edges = ledges + redges
                if lroot:
                    edges = edges + [(lroot, r)]
                if rroot:
                    edges = edges + [(rroot, r)]
                yield r, edges


def best_static_cost(n, keys):
    """Least static finger cost over every BST on 1..n (n <= 7)."""
    if n > MAX_ENUM_N:
        raise ValueError(f"enumeration is limited to n <= {MAX_ENUM_N}, got {n}")
    best = None
    for _, edges in _shapes(1, n):
        parent = [0] * (n + 1)
        for child, par in edges:
            parent[child] = par
        depth = [0] * (n + 1)
        for k in range(1, n + 1):
            node = k
            while parent[node]:
                node = parent[node]
                depth[k] += 1
        total = sum(static_finger_costs(parent, depth, keys))
        if best is None or total < best:
            best = total
    return best
