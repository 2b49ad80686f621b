"""Instrumented splay tree baseline.

Standard bottom-up splaying (Sleator and Tarjan, *Self-adjusting binary
search trees*, JACM 1985), written as one loop of splay steps. Each zig,
zig-zig and zig-zag, left-handed or mirrored, is written out as the pointer
changes that leave the tree as its rotations would: a zig rotates x once,
a zig-zig rotates its parent and then x, and a zig-zag rotates x twice. The
reported cost of an access is the number of nodes on the root-to-key search
path, measured before any restructuring, which makes costs comparable with
the geometric greedy's touched-point counts. Every access then splays the
key to the root; the number of rotations performed always equals cost - 1.

The initial tree is built lazily. A subtree no search has reached is one
unbuilt node standing for its key interval; the first read or write of its
`left` or `right` builds its two children, unbuilt in turn. So a run builds
only the nodes its searches reach, and n may be far larger than the number
of nodes memory could hold. An unbuilt node keeps its interval's ends in
its own child slots, which its `lo` and `hi` name: they are `_Node`'s slot
descriptors themselves, so building reads and writes the slots at slot
speed, past the `left` and `right` properties that trigger it.

`run_splay_reference` re-implements the same splaying over a parent-free
link dict, rotating along an explicit search path, on an initial shape that
`bounds.shape_children` builds eagerly from the rule `bounds.shape_rule`
names. Both trees take their shape from the same rule in `bounds.SHAPE_ROOTS`,
one lazily and one eagerly, so the differential check of their costs covers
the lazy build too.
"""

from __future__ import annotations

from .bounds import INITIAL_SHAPES, SHAPE_ROOTS, shape_children, shape_rule
from .core import (AccessSequence, Column, Key, check_built_size, check_key, check_size,
                   check_type)


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
    reached. lo and hi sit in the `left` and `right` slots, which `lo` and
    `hi` read and write directly; reading or writing `left` or `right` first
    builds both children and turns this node into a plain `_Node`. Each
    shape has a subclass whose `root_of` is its rule."""

    __slots__ = ()
    root_of = None
    lo = _LEFT
    hi = _RIGHT

    def __init__(self, lo: Key, hi: Key, parent: _Node | None):
        self.key = self.root_of(lo, hi)
        self.lo = lo
        self.hi = hi
        self.parent = parent

    def _grow(self) -> None:
        """Build both children, each a leaf when its interval holds one key,
        else an unbuilt node of this node's shape."""
        lo, hi, k = self.lo, self.hi, self.key
        unbuilt = type(self)
        self.lo = None if lo == k else _Node(lo, self) if lo == k - 1 else unbuilt(lo, k - 1, self)
        self.hi = None if hi == k else _Node(hi, self) if hi == k + 1 else unbuilt(k + 1, hi, self)
        self.__class__ = _Node

    left = _grown(_LEFT)
    right = _grown(_RIGHT)


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
        self.root = _Node(1, None) if n == 1 else _UNBUILT[rule](1, n, None)

    def access(self, key: Key) -> int:
        """Search for key, return the path node count, then splay it up."""
        return self._access(check_key(key, self.n))

    def _access(self, key: Key) -> int:
        """`access` for a key already checked against n. Each splay step is
        written out as its final pointer changes: a zig-zig or zig-zag lifts
        x over its parent p and grandparent g at once, a zig (p the root)
        over p alone. In the shapes below, subtree B moves under p and C
        under g; the right-hand cases mirror the left."""
        x = self.root
        cost = 1
        while key != x.key:
            x = x.left if key < x.key else x.right
            cost += 1
        p = x.parent
        while p is not None:
            g = p.parent
            if g is None:  # zig
                if x is p.left:
                    p.left = b = x.right
                    x.right = p
                else:
                    p.right = b = x.left
                    x.left = p
                if b is not None:
                    b.parent = p
                p.parent = x
                break
            gg = g.parent
            if x is p.left:
                if p is g.left:  # zig-zig: g(p(x(A, B), C), D) -> x(A, p(B, g(C, D)))
                    g.left = c = p.right
                    p.left = b = x.right
                    p.right = g
                    x.right = p
                    g.parent = p
                else:  # zig-zag: g(A, p(x(C, B), D)) -> x(g(A, C), p(B, D))
                    g.right = c = x.left
                    p.left = b = x.right
                    x.left = g
                    x.right = p
                    g.parent = x
            elif p is g.right:  # zig-zig: g(A, p(C, x(B, D))) -> x(p(g(A, C), B), D)
                g.right = c = p.left
                p.right = b = x.left
                p.left = g
                x.left = p
                g.parent = p
            else:  # zig-zag: g(p(A, x(B, C)), D) -> x(p(A, B), g(C, D))
                p.right = b = x.left
                g.left = c = x.right
                x.left = p
                x.right = g
                g.parent = x
            if b is not None:
                b.parent = p
            if c is not None:
                c.parent = g
            p.parent = x
            if gg is None:
                break
            if gg.left is g:
                gg.left = x
            else:
                gg.right = x
            p = gg
        x.parent = None  # the loop holds x's parent in p; x ends at the root
        self.root = x
        self.rotations += cost - 1
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


def run_splay(seq: AccessSequence, initial: str = "balanced") -> Column:
    """Serve a whole sequence on one tree, reporting per-access costs."""
    check_type(seq, AccessSequence, "seq")
    tree = SplayTree(seq.n, initial)
    # `seq` has already checked every key against its n
    return Column(tuple(map(tree._access, seq.accesses)))


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


def run_splay_reference(seq: AccessSequence, initial: str = "balanced") -> Column:
    """Parent-free differential re-implementation of `run_splay`, on an
    eagerly built initial shape."""
    check_type(seq, AccessSequence, "seq")
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
    return Column(tuple(costs))
