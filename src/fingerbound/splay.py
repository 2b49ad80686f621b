"""Instrumented splay tree baseline.

Standard bottom-up splaying with zig / zig-zig / zig-zag steps. The reported
cost of an access is the number of nodes on the root-to-key search path,
measured before any restructuring, which makes costs comparable with the
geometric greedy's touched-point counts. Every access then splays the key to
the root; the number of rotations performed always equals cost - 1.

`run_splay_reference` re-implements the same splaying over a parent-free
link dict, rotating along an explicit search path. It exists purely as a
differential check for the pointer implementation.
"""

from __future__ import annotations

from .core import AccessSequence, CostReport, Key
from .errors import KeyOutOfRangeError

INITIAL_SHAPES = ("balanced", "left_spine", "right_spine")


class _Node:
    __slots__ = ("key", "left", "right", "parent")

    def __init__(self, key: Key):
        self.key = key
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.parent: _Node | None = None


class SplayTree:
    """A splay tree holding exactly the keys 1..n."""

    def __init__(self, n: int, initial: str = "balanced"):
        if n < 1:
            raise ValueError(f"tree size must be positive, got {n}")
        if initial not in INITIAL_SHAPES:
            raise ValueError(f"initial shape must be one of {INITIAL_SHAPES}, got {initial!r}")
        self.n = n
        self.rotations = 0
        self.root = self._build(n, initial)

    @staticmethod
    def _build(n: int, initial: str) -> _Node:
        if initial == "balanced":
            def rec(lo: int, hi: int) -> _Node | None:
                if lo > hi:
                    return None
                mid = (lo + hi) // 2
                node = _Node(mid)
                node.left = rec(lo, mid - 1)
                node.right = rec(mid + 1, hi)
                if node.left:
                    node.left.parent = node
                if node.right:
                    node.right.parent = node
                return node

            return rec(1, n)
        nodes = [_Node(k) for k in range(1, n + 1)]
        if initial == "left_spine":
            # Root n, each left child one key smaller.
            for k in range(n, 1, -1):
                nodes[k - 1].left = nodes[k - 2]
                nodes[k - 2].parent = nodes[k - 1]
            return nodes[-1]
        for k in range(1, n):
            nodes[k - 1].right = nodes[k]
            nodes[k].parent = nodes[k - 1]
        return nodes[0]

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not None:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is None:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        self.rotations += 1

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not None:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is None:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        self.rotations += 1

    def _splay(self, x: _Node) -> None:
        while x.parent is not None:
            p = x.parent
            g = p.parent
            if g is None:
                if x is p.left:
                    self._rotate_right(p)
                else:
                    self._rotate_left(p)
            elif x is p.left and p is g.left:
                self._rotate_right(g)
                self._rotate_right(p)
            elif x is p.right and p is g.right:
                self._rotate_left(g)
                self._rotate_left(p)
            elif x is p.right and p is g.left:
                self._rotate_left(p)
                self._rotate_right(g)
            else:
                self._rotate_right(p)
                self._rotate_left(g)

    def access(self, key: Key) -> int:
        """Search for key, return the path node count, then splay it up."""
        if not 1 <= key <= self.n:
            raise KeyOutOfRangeError(f"key {key} outside [1, {self.n}]")
        node = self.root
        cost = 0
        while True:
            cost += 1
            if key == node.key:
                break
            node = node.left if key < node.key else node.right
        self._splay(node)
        return cost

    def in_order(self) -> list[Key]:
        out: list[Key] = []
        stack: list[_Node] = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            out.append(node.key)
            node = node.right
        return out


def run_splay(seq: AccessSequence, initial: str = "balanced") -> CostReport:
    """Serve a whole sequence on one tree, reporting per-access costs."""
    tree = SplayTree(seq.n, initial)
    return CostReport(tuple(tree.access(x) for x in seq))


def _ref_rotate_up(links: dict[int, list[int]], child: int, par: int) -> None:
    l, r = links[par]
    if child == l:
        links[par][0] = links[child][1]
        links[child][1] = par
    else:
        links[par][1] = links[child][0]
        links[child][0] = par


def _ref_replace_child(links: dict[int, list[int]], par: int, old: int, new: int) -> None:
    if links[par][0] == old:
        links[par][0] = new
    else:
        links[par][1] = new


def run_splay_reference(seq: AccessSequence, initial: str = "balanced") -> CostReport:
    """Parent-free differential re-implementation of `run_splay`."""
    n = seq.n
    if initial not in INITIAL_SHAPES:
        raise ValueError(f"initial shape must be one of {INITIAL_SHAPES}, got {initial!r}")
    links: dict[int, list[int]] = {k: [0, 0] for k in range(1, n + 1)}
    if initial == "balanced":
        stack = [(1, n, 0, False)]
        root = (1 + n) // 2
        while stack:
            lo, hi, par, is_right = stack.pop()
            if lo > hi:
                continue
            mid = (lo + hi) // 2
            if par:
                links[par][1 if is_right else 0] = mid
            stack.append((lo, mid - 1, mid, False))
            stack.append((mid + 1, hi, mid, True))
    elif initial == "left_spine":
        for k in range(2, n + 1):
            links[k][0] = k - 1
        root = n
    else:
        for k in range(1, n):
            links[k][1] = k + 1
        root = 1
    costs: list[int] = []
    for x in seq:
        path = [root]
        node = root
        while node != x:
            node = links[node][0] if x < node else links[node][1]
            path.append(node)
        costs.append(len(path))
        while len(path) >= 3:
            g, p = path[-3], path[-2]
            x_is_left = links[p][0] == x
            p_is_left = links[g][0] == p
            if x_is_left == p_is_left:
                _ref_rotate_up(links, p, g)
                _ref_rotate_up(links, x, p)
            else:
                _ref_rotate_up(links, x, p)
                _ref_replace_child(links, g, p, x)
                _ref_rotate_up(links, x, g)
            if len(path) >= 4:
                _ref_replace_child(links, path[-4], g, x)
            del path[-3:]
            path.append(x)
        if len(path) == 2:
            _ref_rotate_up(links, x, path[0])
            path = [x]
        root = path[0]
    return CostReport(tuple(costs))
