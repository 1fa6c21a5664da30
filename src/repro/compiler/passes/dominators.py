"""Dominators, natural loops and control dependence over the CFG.

The susceptibility oracle (:mod:`repro.analysis`) weighs each static
instruction site by how often it is likely to execute, which is a
loop-nesting question: a definition inside a doubly nested loop is hit
orders of magnitude more often than straight-line startup code.  This
module derives that structure from the existing
:class:`~repro.compiler.passes.cfg.ControlFlowGraph`:

* **Dominators** (classic iterative set intersection) per function on the
  *intraprocedural* CFG — call/return edges would smear every caller loop
  over every callee, so loops are found per function and call-site depth
  is composed separately through the call graph.
* **Natural loops** from back edges (an edge ``n -> h`` where ``h``
  dominates ``n``); loops sharing a header are merged, and a block's
  *loop depth* is the number of distinct loop headers whose loop body
  contains it.
* **Post-dominators and control dependence** (Ferrante–Ottenstein–Warren
  over the reversed graph with a virtual exit), the standard "which
  branch decides whether this block runs" relation — exposed for tests,
  documentation and the future ``ProtectionScheme`` axis.
* **Call-depth composition**: a function called only from inside a loop
  effectively runs at that loop's depth, so per-function depths are
  folded over the :class:`~repro.compiler.passes.callgraph.CallGraph`
  with a bounded fixpoint (recursion caps out instead of diverging).

Everything is deterministic: iteration orders are sorted, and the
results are pure functions of the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ...isa import Program
from .callgraph import build_call_graph
from .cfg import ControlFlowGraph, build_cfg

#: Virtual exit node used for post-dominance (never a real block index).
VIRTUAL_EXIT = -1

#: Default cap on composed loop depth: recursion and pathological nests
#: saturate here instead of growing without bound.
MAX_LOOP_DEPTH = 8


def _iterative_dominators(
    nodes: Iterable[int],
    predecessors: Dict[int, Set[int]],
    entry: int,
) -> Dict[int, Set[int]]:
    """Classic iterative dominator sets over one (sub)graph.

    ``nodes`` must all be reachable from ``entry`` along ``predecessors``'
    transposed edges; the caller restricts the graph first.
    """
    node_list = sorted(nodes)
    universe = set(node_list)
    doms: Dict[int, Set[int]] = {
        node: ({node} if node == entry else set(universe)) for node in node_list
    }
    changed = True
    while changed:
        changed = False
        for node in node_list:
            if node == entry:
                continue
            preds = [doms[p] for p in predecessors.get(node, ()) if p in doms]
            new = set.intersection(*preds) if preds else set()
            new.add(node)
            if new != doms[node]:
                doms[node] = new
                changed = True
    return doms


def _immediate_dominators(doms: Dict[int, Set[int]],
                          entry: int) -> Dict[int, Optional[int]]:
    """Immediate dominator per node: the unique strict dominator whose own
    dominator set is one smaller."""
    idom: Dict[int, Optional[int]] = {}
    for node, dom_set in doms.items():
        if node == entry:
            idom[node] = None
            continue
        candidates = [d for d in dom_set
                      if d != node and len(doms[d]) == len(dom_set) - 1]
        idom[node] = min(candidates) if candidates else None
    return idom


@dataclass(frozen=True)
class NaturalLoop:
    """One natural loop: a header block and its body (header included)."""

    header: int
    body: FrozenSet[int]
    back_edges: Tuple[Tuple[int, int], ...]


@dataclass
class FunctionDominators:
    """Dominance facts for one function's intraprocedural subgraph."""

    function: Optional[str]
    entry: int
    #: Block indices reachable from the function entry.
    nodes: FrozenSet[int]
    dominators: Dict[int, FrozenSet[int]]
    immediate_dominators: Dict[int, Optional[int]]
    #: Post-dominators exclude :data:`VIRTUAL_EXIT`.
    post_dominators: Dict[int, FrozenSet[int]]
    #: block -> branch blocks whose outcome decides whether it executes.
    control_dependence: Dict[int, FrozenSet[int]]
    #: Natural loops, one per header, sorted by header block index.
    loops: List[NaturalLoop] = field(default_factory=list)
    #: block -> number of enclosing loops.
    loop_depth: Dict[int, int] = field(default_factory=dict)


def _function_subgraph(
    cfg: ControlFlowGraph, blocks: List[int], entry: int
) -> Tuple[Set[int], Dict[int, Set[int]], Dict[int, Set[int]]]:
    """Reachable nodes plus successor/predecessor maps restricted to
    one function's blocks."""
    members = set(blocks)
    succs: Dict[int, Set[int]] = {}
    for index in blocks:
        succs[index] = {s for s in cfg.blocks[index].successors if s in members}
    reachable: Set[int] = set()
    frontier = [entry]
    while frontier:
        node = frontier.pop()
        if node in reachable:
            continue
        reachable.add(node)
        frontier.extend(succs.get(node, ()))
    succs = {n: {s for s in succs[n] if s in reachable} for n in reachable}
    preds: Dict[int, Set[int]] = {n: set() for n in reachable}
    for node, targets in succs.items():
        for target in targets:
            preds[target].add(node)
    return reachable, succs, preds


def _post_dominators(
    nodes: Set[int], succs: Dict[int, Set[int]]
) -> Tuple[Dict[int, Set[int]], Dict[int, Optional[int]]]:
    """Post-dominator sets and tree over the reversed graph with a
    virtual exit collecting every block without successors."""
    exits = sorted(n for n in nodes if not succs.get(n))
    if not exits:
        # A function that cannot terminate (infinite loop): every node
        # post-dominates only itself; no control dependence is derivable.
        return {n: {n} for n in nodes}, {n: None for n in nodes}
    rev_preds: Dict[int, Set[int]] = {n: set(succs.get(n, ())) for n in nodes}
    for node in exits:
        rev_preds[node].add(VIRTUAL_EXIT)
    rev_preds[VIRTUAL_EXIT] = set()
    doms = _iterative_dominators(set(nodes) | {VIRTUAL_EXIT}, rev_preds,
                                 VIRTUAL_EXIT)
    ipdom = _immediate_dominators(doms, VIRTUAL_EXIT)
    return doms, ipdom


def _control_dependence(
    nodes: Set[int],
    succs: Dict[int, Set[int]],
    pdoms: Dict[int, Set[int]],
    ipdom: Dict[int, Optional[int]],
) -> Dict[int, FrozenSet[int]]:
    """Ferrante–Ottenstein–Warren control dependence from post-dominance."""
    depends: Dict[int, Set[int]] = {n: set() for n in nodes}
    for node in sorted(nodes):
        for successor in sorted(succs.get(node, ())):
            if node in pdoms.get(successor, set()):
                continue  # successor post-dominates node: not a decision edge
            walker: Optional[int] = successor
            stop = ipdom.get(node)
            while walker is not None and walker != stop and \
                    walker != VIRTUAL_EXIT:
                depends[walker].add(node)
                walker = ipdom.get(walker)
    return {n: frozenset(d) for n, d in depends.items()}


def _natural_loops(
    nodes: Set[int],
    preds: Dict[int, Set[int]],
    doms: Dict[int, Set[int]],
    succs: Dict[int, Set[int]],
) -> List[NaturalLoop]:
    """Natural loops from back edges, merged per header."""
    bodies: Dict[int, Set[int]] = {}
    edges: Dict[int, List[Tuple[int, int]]] = {}
    for node in sorted(nodes):
        for successor in sorted(succs.get(node, ())):
            if successor not in doms.get(node, set()):
                continue  # not a back edge
            header = successor
            body = bodies.setdefault(header, {header})
            edges.setdefault(header, []).append((node, header))
            frontier = [node]
            while frontier:
                current = frontier.pop()
                if current in body:
                    continue
                body.add(current)
                frontier.extend(preds.get(current, ()))
    return [
        NaturalLoop(header=header, body=frozenset(bodies[header]),
                    back_edges=tuple(sorted(edges[header])))
        for header in sorted(bodies)
    ]


def compute_function_dominators(
    cfg: ControlFlowGraph, function: Optional[str]
) -> Optional[FunctionDominators]:
    """Dominance facts for one function of an *intraprocedural* CFG.

    Returns ``None`` for functions with no blocks (empty regions).
    """
    program = cfg.program
    block_indices = [b.index for b in cfg.blocks if b.function == function]
    if not block_indices:
        return None
    if function is not None and function in program.functions:
        start = program.functions[function].start
        entry = cfg.block_of_index[start]
    else:
        entry = min(block_indices)
    nodes, succs, preds = _function_subgraph(cfg, block_indices, entry)
    doms = _iterative_dominators(nodes, preds, entry)
    idoms = _immediate_dominators(doms, entry)
    pdoms, ipdom = _post_dominators(nodes, succs)
    control = _control_dependence(nodes, succs, pdoms, ipdom)
    loops = _natural_loops(nodes, preds, doms, succs)
    depth: Dict[int, int] = {n: 0 for n in nodes}
    for loop in loops:
        for member in loop.body:
            depth[member] += 1
    return FunctionDominators(
        function=function,
        entry=entry,
        nodes=frozenset(nodes),
        dominators={n: frozenset(s) for n, s in doms.items()},
        immediate_dominators=idoms,
        post_dominators={n: frozenset(s - {VIRTUAL_EXIT})
                         for n, s in pdoms.items() if n != VIRTUAL_EXIT},
        control_dependence=control,
        loops=loops,
        loop_depth=depth,
    )


def compute_dominator_forest(
    program: Program, cfg: Optional[ControlFlowGraph] = None
) -> Dict[Optional[str], FunctionDominators]:
    """Per-function dominance facts for a whole program.

    ``cfg`` must be intraprocedural when given; the default builds one.
    """
    if cfg is None:
        cfg = build_cfg(program, interprocedural=False)
    elif cfg.interprocedural:
        raise ValueError(
            "dominator analysis needs an intraprocedural CFG "
            "(build_cfg(program, interprocedural=False)); call/return "
            "edges would fold caller loops into callees"
        )
    functions: List[Optional[str]] = sorted(
        {block.function for block in cfg.blocks},
        key=lambda name: (name is None, name),
    )
    forest: Dict[Optional[str], FunctionDominators] = {}
    for name in functions:
        info = compute_function_dominators(cfg, name)
        if info is not None:
            forest[name] = info
    return forest


@dataclass
class LoopNesting:
    """Whole-program loop-nesting depths, local and call-composed.

    ``instruction_depth`` is the depth of the instruction's block within
    its own function; ``call_depth`` is the loop depth its function's call
    sites contribute transitively.  :meth:`total_depth` is their sum,
    saturated at ``max_depth`` — the weight exponent the susceptibility
    oracle uses.
    """

    program: Program
    instruction_depth: Dict[int, int]
    block_depth: Dict[int, int]
    call_depth: Dict[str, int]
    max_depth: int = MAX_LOOP_DEPTH

    def total_depth(self, index: int) -> int:
        """Local loop depth plus the function's composed call depth."""
        local = self.instruction_depth.get(index, 0)
        function = self.program.function_of_index(index)
        composed = local + (self.call_depth.get(function, 0)
                            if function is not None else 0)
        return min(composed, self.max_depth)


def compute_loop_nesting(
    program: Program,
    forest: Optional[Dict[Optional[str], FunctionDominators]] = None,
    max_depth: int = MAX_LOOP_DEPTH,
) -> LoopNesting:
    """Loop-nesting depths for every instruction, composed over calls."""
    cfg = build_cfg(program, interprocedural=False)
    if forest is None:
        forest = compute_dominator_forest(program, cfg)

    block_depth: Dict[int, int] = {}
    for info in forest.values():
        block_depth.update(info.loop_depth)
    instruction_depth: Dict[int, int] = {}
    for block in cfg.blocks:
        depth = block_depth.get(block.index, 0)
        for index in block.instruction_indices():
            instruction_depth[index] = depth

    # Compose call-site depth over the call graph: a callee inherits the
    # deepest (local + caller-composed) depth among its call sites.  The
    # iteration count bounds recursion; depths saturate at ``max_depth``.
    graph = build_call_graph(program)
    call_depth: Dict[str, int] = {name: 0 for name in program.functions}
    for _ in range(len(program.functions) + 1):
        changed = False
        for callee in sorted(graph.call_sites):
            best = 0
            for site in graph.call_sites[callee]:
                caller = program.function_of_index(site)
                inherited = call_depth.get(caller, 0) if caller else 0
                best = max(best,
                           instruction_depth.get(site, 0) + inherited)
            best = min(best, max_depth)
            if callee in call_depth and best > call_depth[callee]:
                call_depth[callee] = best
                changed = True
        if not changed:
            break

    return LoopNesting(
        program=program,
        instruction_depth=instruction_depth,
        block_depth=block_depth,
        call_depth=call_depth,
        max_depth=max_depth,
    )
