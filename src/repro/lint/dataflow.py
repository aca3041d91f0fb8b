"""Generic worklist dataflow over :mod:`repro.lint.cfg` graphs.

Three clients ship with the analyzer:

* :func:`dominators` / :func:`immediate_dominators` — the PROTO001
  rewrite needs true intraprocedural dominance ("every path to the
  consume passes through the can_send branch").
* :func:`reaching_definitions` — which assignments of a name can reach
  a block entry; the typestate rules use it to tie a release back to
  the binding it releases, and the solver-convergence test pins the
  loop-carried-definition fixpoint.
* :func:`liveness` — backward may-analysis; exposed for completeness
  and exercised by the tests (dead resource handles are a cheap signal
  the RES rules lean on).

The solver is deliberately small: sets of hashable facts, union or
intersection meet, iterate to fixpoint in reverse-post-order (forward)
or post-order (backward).  Our CFGs are tiny (one function each), so
clarity wins over bitvectors.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .cfg import CFG
from .project import parameters


class DataflowProblem:
    """A monotone framework instance over set-valued facts."""

    #: "forward" or "backward".
    direction = "forward"
    #: "union" (may) or "intersection" (must).
    meet = "union"

    def boundary(self, cfg: CFG) -> Set:
        """Facts at the entry (forward) or exits (backward)."""
        return set()

    def initial(self, cfg: CFG, bid: int) -> Set:
        """Optimistic starting value for interior nodes."""
        return set()

    def transfer(self, cfg: CFG, bid: int, facts: Set) -> Set:
        raise NotImplementedError


def _reverse_postorder(cfg: CFG) -> List[int]:
    seen: Set[int] = set()
    order: List[int] = []

    def visit(bid: int) -> None:
        # Iterative DFS; recursion depth is bounded by function size but
        # generated fixtures can chain deeply.
        stack: List[Tuple[int, int]] = [(bid, 0)]
        while stack:
            node, idx = stack.pop()
            if idx == 0:
                if node in seen:
                    continue
                seen.add(node)
            succs = cfg.successors(node)
            if idx < len(succs):
                stack.append((node, idx + 1))
                target = succs[idx].target
                if target not in seen:
                    stack.append((target, 0))
            else:
                order.append(node)

    visit(cfg.entry)
    for node in cfg.node_ids():
        if node not in seen:
            visit(node)
    order.reverse()
    return order


def solve(cfg: CFG, problem: DataflowProblem) -> Dict[int, Set]:
    """Fixpoint facts at *entry* of each node (forward) or *exit*
    (backward)."""
    forward = problem.direction == "forward"
    order = _reverse_postorder(cfg)
    if not forward:
        order = list(reversed(order))

    nodes = cfg.node_ids()
    boundary_nodes = {cfg.entry} if forward else {cfg.exit, cfg.error}
    facts_in: Dict[int, Set] = {}
    for node in nodes:
        if node in boundary_nodes:
            facts_in[node] = set(problem.boundary(cfg))
        else:
            facts_in[node] = set(problem.initial(cfg, node))

    def neighbors_in(node: int) -> List[int]:
        edges = (cfg.predecessors(node) if forward
                 else cfg.successors(node))
        return [e.source if forward else e.target for e in edges]

    changed = True
    while changed:
        changed = False
        for node in order:
            if node in boundary_nodes:
                continue
            incoming = [problem.transfer(cfg, n, facts_in[n])
                        for n in neighbors_in(node)]
            if not incoming:
                merged: Set = set(problem.initial(cfg, node))
            elif problem.meet == "union":
                merged = set().union(*incoming)
            else:
                merged = set.intersection(*map(set, incoming))
            if merged != facts_in[node]:
                facts_in[node] = merged
                changed = True
    return facts_in


# -- dominators -------------------------------------------------------------

def dominators(cfg: CFG) -> Dict[int, Set[int]]:
    """dom[b] = the set of blocks on every entry→b path (incl. b)."""
    nodes = cfg.node_ids()
    universe = set(nodes)
    dom: Dict[int, Set[int]] = {n: set(universe) for n in nodes}
    dom[cfg.entry] = {cfg.entry}
    order = [n for n in _reverse_postorder(cfg) if n != cfg.entry]
    changed = True
    while changed:
        changed = False
        for node in order:
            preds = [e.source for e in cfg.predecessors(node)]
            if preds:
                new = set.intersection(*(dom[p] for p in preds))
            else:
                new = set()  # unreachable from entry
            new.add(node)
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom


def immediate_dominators(cfg: CFG) -> Dict[int, Optional[int]]:
    """idom[b] = the unique closest strict dominator (None at entry and
    unreachable nodes)."""
    dom = dominators(cfg)
    idom: Dict[int, Optional[int]] = {}
    for node, doms in dom.items():
        if node == cfg.entry:
            idom[node] = None
            continue
        strict = doms - {node}
        best = None
        for candidate in sorted(strict):
            if all(candidate in dom[other] for other in strict):
                best = candidate
        idom[node] = best
    return idom


def dominates(dom: Dict[int, Set[int]], a: int, b: int) -> bool:
    """True when block ``a`` dominates block ``b``."""
    return a in dom.get(b, set())


# -- reaching definitions ---------------------------------------------------

#: A definition fact: (variable name, line number of the assignment).
Definition = Tuple[str, int]


def _assigned_names(stmt: ast.stmt) -> List[Tuple[str, int]]:
    """Names (re)bound by a statement, with their line numbers."""
    out: List[Tuple[str, int]] = []

    def targets_of(node: ast.AST) -> None:
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                targets_of(element)
        elif isinstance(node, ast.Starred):
            targets_of(node.value)

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            targets_of(target)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets_of(stmt.target)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets_of(stmt.target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                targets_of(item.optional_vars)
    return out


class ReachingDefinitions(DataflowProblem):
    """Forward may-analysis over (name, def_line) facts."""

    direction = "forward"
    meet = "union"

    def __init__(self, params: Tuple[str, ...] = (), param_line: int = 0):
        self.params = params
        self.param_line = param_line

    def boundary(self, cfg: CFG) -> Set[Definition]:
        return {(name, self.param_line) for name in self.params}

    def transfer(self, cfg: CFG, bid: int,
                 facts: Set[Definition]) -> Set[Definition]:
        block = cfg.blocks.get(bid)
        if block is None:
            return set(facts)
        out = set(facts)
        for stmt in block.statements:
            for name, line in _assigned_names(stmt):
                out = {fact for fact in out if fact[0] != name}
                out.add((name, line))
        return out


def reaching_definitions(cfg: CFG, func_node=None) -> Dict[int, Set[Definition]]:
    """Definitions reaching each block entry.  Parameters count as
    definitions on the ``def`` line."""
    params: Tuple[str, ...] = ()
    line = 0
    if func_node is not None:
        params = tuple(a.arg for a in parameters(func_node.args))
        line = func_node.lineno
    return solve(cfg, ReachingDefinitions(params, line))


# -- liveness ---------------------------------------------------------------

class Liveness(DataflowProblem):
    """Backward may-analysis: names whose current value may be read
    later.  Facts at a node are live-at-exit; transfer applies the
    block's use/def backwards."""

    direction = "backward"
    meet = "union"

    def transfer(self, cfg: CFG, bid: int, facts: Set[str]) -> Set[str]:
        block = cfg.blocks.get(bid)
        if block is None:
            return set(facts)
        live = set(facts)
        for stmt in reversed(block.statements):
            defined = {name for name, _ in _assigned_names(stmt)}
            live -= defined
            live |= _used_names(stmt)
        return live


def _used_names(stmt: ast.stmt) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
    return used


def liveness(cfg: CFG) -> Dict[int, Set[str]]:
    """Live variables at the *exit* of each block."""
    return solve(cfg, Liveness())


__all__ = ["DataflowProblem", "Definition", "Liveness",
           "ReachingDefinitions", "dominates", "dominators",
           "immediate_dominators", "liveness", "reaching_definitions",
           "solve"]
