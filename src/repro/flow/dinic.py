"""Dinic's max-flow with min-cut extraction (pure Python, array-based).

Used on the *core-pruned* DDS decision networks, which the paper's whole
contribution keeps small — so a driver-side sequential solver is the
appropriate substrate (see DESIGN.md "Layering decision").

Capacities are Python ints: the DDS network scales its rational level
``λ = p/q`` to integer capacities, so every flow value and every residual
test (``cap > 0``) is exact, and big ints never overflow.
"""
from __future__ import annotations


class Dinic:
    """Max-flow on a directed network with ``n`` nodes.

    Edges are stored in flat parallel lists (``to``, ``cap``) where edge
    ``k`` and its reverse ``k^1`` are adjacent — the usual competitive-
    programming layout, chosen because Python object graphs are slow.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.graph: list[list[int]] = [[] for _ in range(n)]  # node -> edge ids
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add a directed edge u→v with integer capacity ``cap``; returns its id."""
        if type(cap) is not int:  # bool is an int subclass, so test the exact type
            raise TypeError(f"capacity must be an int, got {cap!r} on edge {u}->{v}")
        if cap < 0:
            raise ValueError(f"negative capacity {cap!r} on edge {u}->{v}")
        k = len(self.to)
        self.to += (v, u)
        self.cap += (cap, 0)
        self.graph[u].append(k)
        self.graph[v].append(k + 1)
        return k

    # -- internals ---------------------------------------------------------
    def _bfs(self, s: int, t: int) -> bool:
        """Level the residual graph from ``s``; stop once ``t`` is levelled
        (no shortest path to ``t`` uses the nodes not yet levelled)."""
        self.level = lvl = [-1] * self.n
        lvl[s] = 0
        q = [s]
        to, cap, graph = self.to, self.cap, self.graph
        depth = 0
        while q:
            depth += 1
            nq = []
            for u in q:
                for k in graph[u]:
                    v = to[k]
                    if cap[k] > 0 and lvl[v] < 0:
                        lvl[v] = depth
                        if v == t:
                            return True
                        nq.append(v)
            q = nq
        return False

    def _augment(self, s: int, t: int) -> int:
        """Find one augmenting path in the level graph and push along it.

        Uses the per-node edge iterators (``self.iter``) so repeated calls
        within one phase amortize to a blocking flow. Returns 0 when the
        level graph admits no further path.
        """
        to, cap, lvl, it, graph = self.to, self.cap, self.level, self.iter, self.graph
        path: list[int] = []  # edge ids along current path
        u = s
        while u != t:
            adj = graph[u]
            i, nxt, end = it[u], lvl[u] + 1, len(adj)
            while i < end:
                k = adj[i]
                if cap[k] > 0 and lvl[to[k]] == nxt:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(k)
                u = to[k]
                continue
            lvl[u] = -1  # dead end: prune from level graph
            if u == s:
                return 0
            k = path.pop()
            u = to[k ^ 1]  # tail of the popped edge
            it[u] += 1
        f = min([cap[k] for k in path])
        for k in path:
            cap[k] -= f
            cap[k ^ 1] += f
        return f

    # -- public API --------------------------------------------------------
    def max_flow(self, s: int, t: int) -> int:
        """Compute the maximum s→t flow value."""
        flow = 0
        while self._bfs(s, t):
            self.iter = [0] * self.n
            while (f := self._augment(s, t)) > 0:
                flow += f
        return flow

    def min_cut_source_side(self, s: int) -> list[int]:
        """Nodes reachable from ``s`` in the residual graph.

        Valid only after :meth:`max_flow`; this is the S-side of a
        minimum st-cut.
        """
        seen = [False] * self.n
        seen[s] = True
        q = [s]
        to, cap, graph = self.to, self.cap, self.graph
        while q:
            u = q.pop()
            for k in graph[u]:
                v = to[k]
                if cap[k] > 0 and not seen[v]:
                    seen[v] = True
                    q.append(v)
        return [i for i, b in enumerate(seen) if b]
