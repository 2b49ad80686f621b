"""Instrumented splay tree baseline.

Standard bottom-up splaying (Sleator and Tarjan, *Self-adjusting binary
search trees*, JACM 1985), written with one primitive: `_rotate_up` rotates
the edge between a node and its parent. A zig rotates x once, a zig-zig
rotates its parent and then x, and a zig-zag rotates x twice. The reported
cost of an access is the number of nodes on the root-to-key search path,
measured before any restructuring, which makes costs comparable with the
geometric greedy's touched-point counts. Every access then splays the key to
the root; the number of rotations performed always equals cost - 1.

The initial tree is built lazily. A subtree no search has reached is one
unbuilt node standing for its key interval; the first read or write of its
`left` or `right` builds its two children, unbuilt in turn. So a run builds
only the nodes its searches reach, and n may be far larger than the number
of nodes memory could hold.

`run_splay_reference` re-implements the same splaying over a parent-free
link dict, rotating along an explicit search path, on an initial shape that
`bounds.shape_children` builds eagerly from the rule `bounds.shape_rule`
names. Both trees take their shape from the same rule in `bounds.SHAPE_ROOTS`,
one lazily and one eagerly, so the differential check of their costs covers
the lazy build too.
"""

from __future__ import annotations

from .bounds import INITIAL_SHAPES, SHAPE_ROOTS, shape_children, shape_rule
from .core import AccessSequence, CostReport, Key, check_built_size, check_key, check_size


class _Node:
    __slots__ = ("key", "left", "right", "parent")

    def __init__(self, key: Key, parent: _Node | None):
        self.key = key
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.parent = parent


# The slot descriptors, which `_Unbuilt` shadows with properties.
_LEFT = _Node.left
_RIGHT = _Node.right


def _grown(slot) -> property:
    """A property over a child slot of `_Unbuilt` that builds the node's
    children first, then reads or writes the slot."""
    def get(node: _Unbuilt) -> _Node | None:
        node._grow()
        return slot.__get__(node)

    def put(node: _Unbuilt, child: _Node | None) -> None:
        node._grow()
        slot.__set__(node, child)

    return property(get, put)


class _Unbuilt(_Node):
    """The root of a subtree over keys [lo, hi], lo < hi, that no search has
    reached. lo and hi sit in the `left` and `right` slots; reading or writing
    `left` or `right` first builds both children and turns this node into a
    plain `_Node`. Each shape has a subclass whose `root_of` is its rule."""

    __slots__ = ()
    root_of = None

    def __init__(self, lo: Key, hi: Key, parent: _Node | None):
        self.key = self.root_of(lo, hi)
        _LEFT.__set__(self, lo)
        _RIGHT.__set__(self, hi)
        self.parent = parent

    def _grow(self) -> None:
        lo, hi, k = _LEFT.__get__(self), _RIGHT.__get__(self), self.key
        _LEFT.__set__(self, _subtree(type(self), lo, k - 1, self) if lo < k else None)
        _RIGHT.__set__(self, _subtree(type(self), k + 1, hi, self) if k < hi else None)
        self.__class__ = _Node

    left = _grown(_LEFT)
    right = _grown(_RIGHT)


def _subtree(unbuilt: type[_Unbuilt], lo: Key, hi: Key, parent: _Node | None) -> _Node:
    """The root of a not yet reached subtree over [lo, hi]: a leaf when the
    interval holds one key, else an unbuilt node."""
    return _Node(lo, parent) if lo == hi else unbuilt(lo, hi, parent)


# The unbuilt-node class of each shape rule.
_UNBUILT = {rule: type("_Unbuilt", (_Unbuilt,), {"__slots__": (), "root_of": staticmethod(rule)})
            for rule in SHAPE_ROOTS.values()}


class SplayTree:
    """A splay tree holding exactly the keys 1..n, built as searches reach it."""

    def __init__(self, n: int, initial: str = "balanced"):
        rule = shape_rule(initial)
        if initial == "balanced":  # a search builds O(log n) nodes
            check_size(n)
        else:  # one search down the spine can build n nodes
            check_built_size(n, f"a {initial} splay tree")
        self.n = n
        self.rotations = 0
        self.root = _subtree(_UNBUILT[rule], 1, n, None)

    def _rotate_up(self, x: _Node) -> None:
        """Rotate the edge between x and its parent p, so that x takes p's
        place under p's parent (or as the root) and p becomes x's child."""
        p = x.parent
        g = p.parent
        if x is p.left:
            p.left = inner = x.right
            x.right = p
        else:
            p.right = inner = x.left
            x.left = p
        if inner is not None:
            inner.parent = p
        p.parent = x
        x.parent = g
        if g is None:
            self.root = x
        elif p is g.left:
            g.left = x
        else:
            g.right = x
        self.rotations += 1

    def _splay(self, x: _Node) -> None:
        while (p := x.parent) is not None:
            g = p.parent
            if g is not None:
                self._rotate_up(p if (x is p.left) == (p is g.left) else x)
            self._rotate_up(x)

    def access(self, key: Key) -> int:
        """Search for key, return the path node count, then splay it up."""
        check_key(key, self.n)
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
        """All keys in order; builds every node not yet built."""
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
    """Parent-free differential re-implementation of `run_splay`, on an
    eagerly built initial shape."""
    root, left, right = shape_children(seq.n, shape_rule(initial))
    links = {k: [left[k], right[k]] for k in range(1, seq.n + 1)}
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
