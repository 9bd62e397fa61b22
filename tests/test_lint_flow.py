"""Tests for the flow-analysis layer under repro.lint — the CFG
builder, the dataflow engine (reaching definitions + resource
lattice) — and the runner's cross-file error closure."""

import ast
import textwrap

from repro.lint import lint_paths
from repro.lint.cfg import build_cfg, can_raise
from repro.lint.dataflow import (ResourceEvent, ResourceFlow,
                                 reaching_definitions)


def _cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(func)


def _flow(source, acquire_call, release_method):
    """ResourceFlow tracking `x = acquire_call(...)` / `x.release()`."""
    cfg = _cfg(source)

    def events(node):
        stmt = node.stmt
        # compound headers carry the whole statement (body included):
        # only plain-statement nodes run acquire/release calls here
        if stmt is None or node.label != "stmt":
            return ResourceEvent()
        acquires = ()
        if (node.label == "stmt" and isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id == acquire_call
                and isinstance(stmt.targets[0], ast.Name)):
            acquires = (stmt.targets[0].id,)
        releases = tuple(
            sub.func.value.id for sub in ast.walk(stmt)
            if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == release_method
            and isinstance(sub.func.value, ast.Name))
        return ResourceEvent(acquires=acquires, releases=releases)

    return ResourceFlow(cfg, events)


class TestCfgShapes:
    def test_straight_line(self):
        cfg = _cfg("""\
            def f(x):
                a = x + 1
                return a
            """)
        stmts = list(cfg.statement_nodes())
        assert len(stmts) == 2
        # the return reaches exit
        assert cfg.exit in cfg.nodes[stmts[-1].idx].succs

    def test_if_joins(self):
        cfg = _cfg("""\
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """)
        labels = [n.label for n in cfg.statement_nodes()]
        assert labels.count("if") == 1
        ret = [n for n in cfg.statement_nodes()
               if isinstance(n.stmt, ast.Return)][0]
        preds = [n.idx for n in cfg.nodes if ret.idx in n.succs]
        assert len(preds) == 2  # both branches join at the return

    def test_loop_back_edge(self):
        cfg = _cfg("""\
            def f(xs):
                for x in xs:
                    use(x)
                return None
            """)
        head = [n for n in cfg.statement_nodes()
                if n.label == "loop"][0]
        body = [n for n in cfg.statement_nodes()
                if n.label == "stmt"
                and isinstance(n.stmt, ast.Expr)][0]
        assert head.idx in body.succs  # back edge

    def test_break_exits_loop(self):
        cfg = _cfg("""\
            def f(xs):
                while True:
                    break
                return None
            """)
        brk = [n for n in cfg.statement_nodes()
               if isinstance(n.stmt, ast.Break)][0]
        exits = [n for n in cfg.nodes if n.label == "loop-exit"]
        assert exits and exits[0].idx in brk.succs

    def test_raise_reaches_raise_exit(self):
        cfg = _cfg("""\
            def f():
                raise ValueError("x")
            """)
        rse = [n for n in cfg.statement_nodes()
               if isinstance(n.stmt, ast.Raise)][0]
        assert cfg.raise_exit in rse.excs

    def test_call_gets_exception_edge(self):
        cfg = _cfg("""\
            def f(x):
                y = g(x)
                return y
            """)
        call = [n for n in cfg.statement_nodes()
                if isinstance(n.stmt, ast.Assign)][0]
        assert cfg.raise_exit in call.excs

    def test_constant_move_has_no_exception_edge(self):
        cfg = _cfg("""\
            def f():
                x = None
                return x
            """)
        move = [n for n in cfg.statement_nodes()
                if isinstance(n.stmt, ast.Assign)][0]
        assert not move.excs

    def test_handler_intercepts_body_exception(self):
        cfg = _cfg("""\
            def f():
                try:
                    risky()
                except ValueError:
                    cleanup()
                return None
            """)
        risky = [n for n in cfg.statement_nodes()
                 if n.label == "stmt"
                 and isinstance(n.stmt, ast.Expr)][0]
        dispatch = [n for n in cfg.nodes if n.label == "dispatch"][0]
        assert dispatch.idx in risky.excs
        # a ValueError-only handler may not match: propagation edge
        assert cfg.raise_exit in dispatch.succs

    def test_catch_all_handler_stops_propagation(self):
        cfg = _cfg("""\
            def f():
                try:
                    risky()
                except Exception:
                    cleanup()
                return None
            """)
        dispatch = [n for n in cfg.nodes if n.label == "dispatch"][0]
        assert cfg.raise_exit not in dispatch.succs

    def test_can_raise(self):
        assert can_raise(ast.parse("f(x)").body[0])
        assert can_raise(ast.parse("a.b").body[0])
        assert not can_raise(ast.parse("x = None").body[0])


class TestReachingDefinitions:
    def _defs_at_return(self, source, name):
        cfg = _cfg(source)
        reach = reaching_definitions(cfg)
        ret = [n for n in cfg.statement_nodes()
               if isinstance(n.stmt, ast.Return)][0]
        return {site for nm, site in reach[ret.idx] if nm == name}

    def test_single_def(self):
        sites = self._defs_at_return("""\
            def f():
                x = 1
                return x
            """, "x")
        assert len(sites) == 1

    def test_branch_merges_both_defs(self):
        sites = self._defs_at_return("""\
            def f(c):
                if c:
                    x = 1
                else:
                    x = 2
                return x
            """, "x")
        assert len(sites) == 2

    def test_rebind_kills_old_def(self):
        sites = self._defs_at_return("""\
            def f():
                x = 1
                x = 2
                return x
            """, "x")
        assert len(sites) == 1

    def test_loop_def_joins_with_preloop(self):
        sites = self._defs_at_return("""\
            def f(xs):
                x = 0
                for x in xs:
                    pass
                return x
            """, "x")
        assert len(sites) == 2  # init and loop target both reach

    def test_subscript_store_is_not_a_binding(self):
        sites = self._defs_at_return("""\
            def f(buf):
                x = 1
                buf[x] = 2
                return x
            """, "x")
        assert len(sites) == 1


class TestResourceFlow:
    def test_released_on_straight_line_is_clean(self):
        flow = _flow("""\
            def f():
                r = acquire()
                r.release()
            """, "acquire", "release")
        assert flow.leaks() == []

    def test_exception_between_acquire_and_release(self):
        flow = _flow("""\
            def f():
                r = acquire()
                risky()
                r.release()
            """, "acquire", "release")
        leaks = flow.leaks()
        assert len(leaks) == 1
        assert leaks[0][2] == "exception"

    def test_early_return_leak(self):
        flow = _flow("""\
            def f(c):
                r = acquire()
                if c:
                    return None
                r.release()
            """, "acquire", "release")
        leaks = flow.leaks()
        assert len(leaks) == 1
        assert leaks[0][2] == "return"

    def test_try_finally_releases_all_paths(self):
        flow = _flow("""\
            def f():
                r = acquire()
                try:
                    risky()
                finally:
                    r.release()
            """, "acquire", "release")
        assert flow.leaks() == []

    def test_loop_reacquire_is_tracked(self):
        flow = _flow("""\
            def f(xs):
                for x in xs:
                    r = acquire()
                    r.release()
            """, "acquire", "release")
        assert flow.leaks() == []

    def test_loop_leak_on_continue(self):
        flow = _flow("""\
            def f(xs):
                for x in xs:
                    r = acquire()
                    if x:
                        continue
                    r.release()
            """, "acquire", "release")
        # the continue path carries an open r back to the loop head,
        # where rebinding drops it — but the loop can exit right after
        # the continue iteration, so the resource may reach the end
        assert flow.leaks()


class TestCrossFileClosure:
    def test_error_closure_spans_files(self, tmp_path):
        # the ReproError closure is a cross-file fact: a leaf whose
        # ancestors live in another file is still checked by ERR02
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "one.py").write_text(textwrap.dedent("""\
            class ReproError(Exception):
                pass

            class MidError(ReproError):
                pass
            """))
        (pkg / "two.py").write_text(textwrap.dedent("""\
            from .one import MidError

            class LeafError(MidError):
                def __init__(self, message, extra):
                    super().__init__(message)
            """))
        result = lint_paths([pkg], select=["ERR02"])
        assert [(f.rule, f.path) for f in result.findings] == \
            [("ERR02", "repro/two.py")]
