"""The worklist solver: loop heads, termination and the fixpoint.

The typestate transfers are not monotone in a name's alias set, so the
solver keeps every loop head's IN fact growing; and an exception edge
carries its source's IN fact as well as its OUT fact, so a change of IN
alone must reach the handler.  Each case below is checked to be a
fixpoint: every node's OUT is its transfer of IN, every other node's IN
is the join of what its predecessors send, and a loop head's IN covers
that join.
"""

import ast

import pytest

from repro.lint.cfg import EXC, build_cfg
from repro.lint.dataflow import loop_heads, solve
from repro.lint.typestate import TypestateAnalysis


def _scope(source):
    fn = ast.parse(source).body[0]
    return build_cfg(fn.body), [arg.arg for arg in fn.args.args]


def _loop_lines(source):
    cfg, _params = _scope(source)
    return sorted(cfg.nodes[n].line for n in loop_heads(cfg))


class TestLoopHeads:
    def test_straight_line_has_none(self):
        assert _loop_lines("def f(es):\n    es.start()\n    es.stop()\n") == []

    def test_nested_loops_have_one_head_each(self):
        source = (
            "def f(es, n):\n"
            "    while n:\n"
            "        for _ in range(n):\n"
            "            es.start()\n"
            "            es.stop()\n"
        )
        assert _loop_lines(source) == [2, 3]

    def test_continue_targets_the_same_head(self):
        source = (
            "def f(es, n):\n"
            "    while n:\n"
            "        if n:\n"
            "            continue\n"
            "        es.start()\n"
        )
        assert _loop_lines(source) == [2]


# the alias set of ``es`` grows from nothing to the created set between
# iterations, so the ``.running`` refinement flips with it
LOOP_UNTIL_RUNNING = """\
def f(papi):
    es = None
    while not es.running:
        es = papi.create_eventset()
        es.start()
"""

# ``es.stop()`` in the try maps every IN fact to the same OUT fact, so
# the handler learns that ``mystery(x)`` left ``es`` unknown on a later
# iteration only from the IN fact its exception edge carries
STALE_HANDLER = """\
def main(papi, flag):
    es = papi.create_eventset()
    es.start()
    while flag:
        try:
            es.stop()
        except PapiError:
            es.stop()
            mystery(x)
            x = es
"""

# the same shape on a parameter seeded running (a summary's solve)
SEEDED_HANDLER = """\
def helper(a):
    while flag:
        try:
            a.stop()
        except PapiError:
            a.stop()
            mystery(x)
            x = a if flag else y
"""

CASES = [
    pytest.param(LOOP_UNTIL_RUNNING, {}, id="loop-until-running"),
    pytest.param(STALE_HANDLER, {}, id="stale-handler"),
    pytest.param(
        SEEDED_HANDLER, {"seed_param": (0, "running")}, id="seeded-handler"
    ),
    pytest.param(SEEDED_HANDLER, {"worlds": True}, id="worlds-handler"),
]


@pytest.mark.parametrize("source, options", CASES)
def test_solution_is_a_fixpoint(source, options):
    cfg, params = _scope(source)
    analysis = TypestateAnalysis({}, params, **options)
    ins, outs = solve(cfg, analysis)
    preds = cfg.preds()
    heads = loop_heads(cfg)
    for node in cfg.nodes:
        assert analysis.transfer(node, ins[node.id]) == outs[node.id]
        if node.id == cfg.entry:
            continue
        fact = analysis.bottom()
        for src, kind in preds[node.id]:
            sent = outs[src]
            if kind == EXC:
                sent = analysis.exc_adapt(analysis.join(ins[src], sent))
            fact = analysis.join(fact, sent)
        if node.id in heads:
            assert analysis.join(ins[node.id], fact) == ins[node.id]
        else:
            assert fact == ins[node.id], (node.kind, node.line)
