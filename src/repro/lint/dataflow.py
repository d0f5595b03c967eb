"""A generic forward worklist dataflow solver over :mod:`repro.lint.cfg`.

The framework is deliberately tiny: a client supplies three callables
(initial fact, join, transfer) and gets back the fixed-point IN fact of
every node.  Its one client is the typestate analysis, for a scope's
own findings and for a function's summary; the solver itself knows
nothing about PAPI.

Facts must be *value-comparable* (``==``) over a finite lattice.  The
transfers need not be monotone: the typestate transfers are not in a
name's alias set (a strong update or a ``.running`` refinement applies
only while the set names one object, so a larger set can yield a
smaller fact), and a loop whose alias set grows between iterations
would otherwise oscillate.  The solver makes every *loop head* -- the
target of a back edge of a depth-first search from the entry -- keep
growing: its new IN fact is joined with its previous one.  Every cycle
passes a loop head, so on a finite lattice the loop heads stop
changing and the worklist drains.

Exception edges carry ``join(IN, OUT)`` of their source rather than just
OUT: an exception can surface before or after the source statement's
effect took place (``es.start()`` can raise before the set is running,
``work(); es.stop()`` can raise after it already was), and joining both
sides is sound for either ordering without modelling sub-statement
program points.  So a change of a source's IN fact alone re-queues its
exception successors (``es.stop()`` maps every IN to the same OUT).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generic, Set, Tuple, TypeVar

from repro.lint.cfg import CFG, EXC

Fact = TypeVar("Fact")


class Analysis(Generic[Fact]):
    """Client hooks for one forward dataflow problem."""

    def initial(self) -> Fact:
        """Fact at the scope entry."""
        raise NotImplementedError

    def bottom(self) -> Fact:
        """Fact for not-yet-reached nodes (identity of join)."""
        raise NotImplementedError

    def join(self, a: Fact, b: Fact) -> Fact:
        raise NotImplementedError

    def transfer(self, node, fact: Fact) -> Fact:
        """OUT fact of *node* given its IN fact.  Must not mutate."""
        raise NotImplementedError

    def exc_adapt(self, fact: Fact) -> Fact:
        """Transform a fact flowing along an exception edge.

        The typestate client overrides this to tag every lifecycle
        element as exception-reached, which is what the leak rules
        (PL303/PL304) key on.  Default: identity.
        """
        return fact


def solve(
    cfg: CFG, analysis: Analysis[Fact], max_iterations: int = 100_000
) -> Tuple[Dict[int, Fact], Dict[int, Fact]]:
    """Run *analysis* to fixpoint; returns (IN, OUT) facts per node id.

    ``max_iterations`` is a safety valve against a client whose lattice
    is not finite: hitting it raises rather than spinning, because a
    linter that hangs is worse than one that crashes.
    """
    preds = cfg.preds()
    heads = loop_heads(cfg)
    raisers = {
        src for src, edges in cfg.succs.items()
        if any(kind == EXC for _dst, kind in edges)
    }
    ins: Dict[int, Fact] = {n.id: analysis.bottom() for n in cfg.nodes}
    outs: Dict[int, Fact] = {n.id: analysis.bottom() for n in cfg.nodes}
    ins[cfg.entry] = analysis.initial()

    work = deque(n.id for n in cfg.nodes)
    queued = set(work)
    iterations = 0
    while work:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                "dataflow did not converge (non-monotone transfer?)"
            )
        node_id = work.popleft()
        queued.discard(node_id)
        node = cfg.nodes[node_id]

        if node_id != cfg.entry:
            fact = analysis.bottom()
            for src, kind in preds[node_id]:
                contrib = outs[src]
                if kind == EXC:
                    contrib = analysis.exc_adapt(
                        analysis.join(ins[src], outs[src])
                    )
                fact = analysis.join(fact, contrib)
            if node_id in heads:
                fact = analysis.join(ins[node_id], fact)
            in_changed = node_id in raisers and fact != ins[node_id]
            ins[node_id] = fact
        else:
            in_changed = False

        new_out = analysis.transfer(node, ins[node_id])
        out_changed = new_out != outs[node_id]
        outs[node_id] = new_out
        for dst, kind in cfg.succs[node_id]:
            # an exception edge carries IN as well as OUT
            changed = out_changed or (in_changed and kind == EXC)
            if changed and dst not in queued:
                work.append(dst)
                queued.add(dst)
    return ins, outs


def loop_heads(cfg: CFG) -> Set[int]:
    """Targets of the back edges of a depth-first search from the entry."""
    heads: Set[int] = set()
    on_path = {cfg.entry}
    seen = {cfg.entry}
    stack = [(cfg.entry, iter(cfg.succs[cfg.entry]))]
    while stack:
        node_id, edges = stack[-1]
        for dst, _kind in edges:
            if dst in on_path:
                heads.add(dst)
            elif dst not in seen:
                seen.add(dst)
                on_path.add(dst)
                stack.append((dst, iter(cfg.succs[dst])))
                break
        else:
            stack.pop()
            on_path.discard(node_id)
    return heads
