"""SCCs and reachability over ``{node: successors}`` adjacency dicts.

Nodes and successors are visited in the dict's own order, so every
result is exactly as deterministic as the dict handed in.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

Graph = Mapping[Hashable, Iterable[Hashable]]


def strongly_connected_components(graph: Graph) -> list[frozenset]:
    """Tarjan's SCCs without recursion, sinks first (reverse topological)."""
    index: dict = {}
    low: dict = {}  # exactly the nodes still on the stack
    stack: list = []
    work: list = []
    out: list[frozenset] = []

    def push(node) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        work.append((node, iter(graph[node])))

    for root in graph:
        if root not in index:
            push(root)
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    push(succ)
                    break
                if succ in low:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = set()
                    while node not in component:
                        member = stack.pop()
                        del low[member]
                        component.add(member)
                    out.append(frozenset(component))
    return out


def ancestors(graph: Graph, targets: Iterable) -> set:
    """The nodes with a non-empty path into *targets*."""
    predecessors: dict = {}
    for source, successors in graph.items():
        for succ in successors:
            predecessors.setdefault(succ, []).append(source)
    seen: set = set()
    frontier = list(targets)
    while frontier:
        for pred in predecessors.get(frontier.pop(), ()):
            if pred not in seen:
                seen.add(pred)
                frontier.append(pred)
    return seen


def topological_components(graph: Graph) -> list[frozenset]:
    """SCCs in topological order: Kahn's algorithm on the condensation,
    one generation of sources at a time, each in first-seen order."""
    components = strongly_connected_components(graph)
    owner = {node: i for i, component in enumerate(components) for node in component}
    children: list[dict] = [{} for _ in components]  # ordered sets
    indegree = [0] * len(components)
    for source, successors in graph.items():
        a = owner[source]
        for succ in successors:
            b = owner[succ]
            if a != b and b not in children[a]:
                children[a][b] = None
                indegree[b] += 1
    order = [i for i, degree in enumerate(indegree) if degree == 0]
    for i in order:  # grows while it is walked: one generation after another
        for child in children[i]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(child)
    return [components[i] for i in order]
