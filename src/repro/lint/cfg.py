"""Intraprocedural control-flow graphs over :mod:`ast` statements.

The flow-sensitive rules (:mod:`repro.lint.flow`, the ``*-taint``/
``*-order`` rules in :mod:`repro.lint.rules`) need to reason about
*paths*, not syntax: "does every path to this ``DONE`` transition pass
the ``save_result`` write, including the path where a call in between
raises?"  This module builds the graph those questions are asked on.

Design points:

* **One node per executed unit.**  Simple statements get one node each;
  compound statements get a *header* node carrying only the expression
  that executes at branch time (an ``if``/``while`` test, a ``for``
  iterable, ``with`` items, an ``except`` clause binding).  Statement
  granularity keeps dominance and reachability exact without a separate
  "position inside basic block" coordinate — a basic block here is just
  a maximal straight-line chain of nodes.
* **Exceptional edges are explicit.**  Every node that can plausibly
  raise (it evaluates a call, attribute access, subscript, operator, or
  ``assert``) carries an edge to the innermost exception target: the
  enclosing ``try``'s handler-dispatch node, the enclosing ``finally``,
  or the function exit.  ``raise`` jumps there unconditionally;
  ``return`` routes through enclosing ``finally`` blocks; a ``finally``
  re-propagates to the next target outward.  The graph therefore
  over-approximates real control flow — every feasible path exists in
  it, which is the soundness direction path rules need.
* **No scope descent.**  Nested ``def``/``lambda``/``class`` bodies are
  opaque single nodes; each function is its own CFG
  (:func:`iter_scopes` enumerates them, module top-level included).

Everything is pure AST analysis — nothing under check is imported.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

__all__ = ["CFG", "CFGNode", "FUNCTION_NODES", "Scope", "build_cfg",
           "iter_scopes", "shallow_walk"]

FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: expression shapes that can plausibly raise at runtime
_RAISING = (ast.Call, ast.Attribute, ast.Subscript, ast.BinOp, ast.UnaryOp,
            ast.Compare, ast.Await, ast.Starred, ast.FormattedValue)


@dataclass
class CFGNode:
    """One executed unit of the graph.

    ``kind`` is ``"entry"``/``"exit"`` for the virtual endpoints,
    ``"stmt"`` for a simple statement, ``"test"``/``"iter"``/``"with"``
    for compound-statement headers, ``"handler"`` for an ``except``
    clause, and ``"dispatch"``/``"finally"`` for the virtual nodes of a
    ``try``.  ``code`` holds exactly the AST that executes *at this
    node* (for headers: the test/iterable/items, never the body).
    """

    index: int
    kind: str
    stmt: ast.AST | None = None
    code: tuple[ast.AST, ...] = ()
    succ: set[int] = field(default_factory=set)
    #: taken only when this node's evaluation raises
    exc: set[int] = field(default_factory=set)

    def successors(self, *, exceptional: bool = True) -> set[int]:
        return self.succ | self.exc if exceptional else set(self.succ)


@dataclass
class CFG:
    """The control-flow graph of one scope (function body or module)."""

    nodes: list[CFGNode]
    entry: int
    exit: int

    def __iter__(self) -> Iterator[CFGNode]:
        return iter(self.nodes)

    def preds(self) -> list[set[int]]:
        """Predecessor sets (normal and exceptional edges merged)."""
        preds: list[set[int]] = [set() for _ in self.nodes]
        for node in self.nodes:
            for succ in node.successors():
                preds[succ].add(node.index)
        return preds

    def reachable_without(self, start: int,
                          stop: frozenset[int]) -> set[int]:
        """Nodes reachable from ``start`` along paths that never pass
        through a ``stop`` node (``stop`` nodes are reached but not
        expanded).  Exceptional edges are followed."""
        seen: set[int] = set()
        frontier = [start]
        while frontier:
            index = frontier.pop()
            if index in seen:
                continue
            seen.add(index)
            if index in stop:
                continue
            frontier.extend(t for t in self.nodes[index].successors()
                            if t not in seen)
        return seen

    def dominators(self) -> list[set[int]]:
        """``dom[n]`` = every node on *all* paths from entry to ``n``
        (classic iterative dataflow; exceptional edges included, so
        dominance holds over raising paths too)."""
        preds = self.preds()
        everything = set(range(len(self.nodes)))
        dom: list[set[int]] = [set(everything) for _ in self.nodes]
        dom[self.entry] = {self.entry}
        changed = True
        while changed:
            changed = False
            for node in self.nodes:
                index = node.index
                if index == self.entry:
                    continue
                incoming = [dom[p] for p in preds[index]]
                new = (set.intersection(*incoming) if incoming else set())
                new.add(index)
                if new != dom[index]:
                    dom[index] = new
                    changed = True
        return dom


def shallow_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function, lambda, or
    class scopes — what executes *here*, not what merely gets defined."""
    yield node
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (*FUNCTION_NODES, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(child))


def _can_raise(parts: tuple[ast.AST, ...]) -> bool:
    return any(isinstance(leaf, _RAISING)
               for part in parts for leaf in shallow_walk(part))


@dataclass
class _Ctx:
    """Where non-sequential control transfers go in the current region."""

    exc: int                       # in-flight exception target
    finallies: tuple[int, ...]     # enclosing finally entries, outermost first
    breaks: list[int] | None = None
    cont: int | None = None


class _Builder:
    def __init__(self) -> None:
        self.nodes: list[CFGNode] = []

    def new(self, kind: str, stmt: ast.AST | None = None,
            code: tuple[ast.AST, ...] = ()) -> CFGNode:
        node = CFGNode(index=len(self.nodes), kind=kind, stmt=stmt, code=code)
        self.nodes.append(node)
        return node

    def connect(self, opens: set[int], target: int) -> None:
        for index in opens:
            self.nodes[index].succ.add(target)

    def build(self, body: list[ast.stmt]) -> CFG:
        entry = self.new("entry")
        exit_ = self.new("exit")
        ctx = _Ctx(exc=exit_.index, finallies=())
        ends = self.body(body, {entry.index}, ctx)
        self.connect(ends, exit_.index)
        return CFG(nodes=self.nodes, entry=entry.index, exit=exit_.index)

    def body(self, stmts: list[ast.stmt], opens: set[int],
             ctx: _Ctx) -> set[int]:
        for stmt in stmts:
            opens = self.stmt(stmt, opens, ctx)
        return opens

    def stmt(self, stmt: ast.stmt, opens: set[int], ctx: _Ctx) -> set[int]:
        if isinstance(stmt, ast.If):
            return self._branch(stmt, (stmt.test,), stmt.body, stmt.orelse,
                                opens, ctx, kind="test")
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, opens, ctx)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, opens, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            header = self.new("with", stmt,
                              tuple(item.context_expr for item in stmt.items)
                              + tuple(item.optional_vars
                                      for item in stmt.items
                                      if item.optional_vars is not None))
            self.connect(opens, header.index)
            header.exc.add(ctx.exc)
            return self.body(stmt.body, {header.index}, ctx)
        if isinstance(stmt, ast.Match):
            header = self.new("test", stmt, (stmt.subject,))
            self.connect(opens, header.index)
            header.exc.add(ctx.exc)
            ends: set[int] = {header.index}
            for case in stmt.cases:
                ends |= self.body(case.body, {header.index}, ctx)
            return ends
        return self._simple(stmt, opens, ctx)

    def _simple(self, stmt: ast.stmt, opens: set[int],
                ctx: _Ctx) -> set[int]:
        code: tuple[ast.AST, ...] = (stmt,)
        if isinstance(stmt, (*FUNCTION_NODES, ast.ClassDef)):
            # only decorators/defaults/bases execute at definition time
            code = tuple(stmt.decorator_list)
            if isinstance(stmt, FUNCTION_NODES):
                code += tuple(stmt.args.defaults) + tuple(
                    d for d in stmt.args.kw_defaults if d is not None)
            else:
                code += tuple(stmt.bases) + tuple(
                    kw.value for kw in stmt.keywords)
        node = self.new("stmt", stmt, code)
        self.connect(opens, node.index)
        if isinstance(stmt, ast.Return):
            if _can_raise(code):
                node.exc.add(ctx.exc)
            node.succ.add(ctx.finallies[-1] if ctx.finallies
                          else self.nodes[1].index)  # function exit
            return set()
        if isinstance(stmt, ast.Raise):
            node.succ.add(ctx.exc)
            return set()
        if isinstance(stmt, ast.Break):
            if ctx.breaks is not None:
                ctx.breaks.append(node.index)
            return set()
        if isinstance(stmt, ast.Continue):
            if ctx.cont is not None:
                node.succ.add(ctx.cont)
            return set()
        if _can_raise(code):
            node.exc.add(ctx.exc)
        return {node.index}

    def _branch(self, stmt: ast.stmt, header_code: tuple[ast.AST, ...],
                body: list[ast.stmt], orelse: list[ast.stmt],
                opens: set[int], ctx: _Ctx, *, kind: str) -> set[int]:
        header = self.new(kind, stmt, header_code)
        self.connect(opens, header.index)
        if _can_raise(header_code):
            header.exc.add(ctx.exc)
        ends = self.body(body, {header.index}, ctx)
        if orelse:
            ends |= self.body(orelse, {header.index}, ctx)
        else:
            ends.add(header.index)
        return ends

    def _loop(self, stmt: ast.While | ast.For | ast.AsyncFor,
              opens: set[int], ctx: _Ctx) -> set[int]:
        if isinstance(stmt, ast.While):
            header = self.new("test", stmt, (stmt.test,))
        else:
            header = self.new("iter", stmt, (stmt.iter, stmt.target))
        self.connect(opens, header.index)
        header.exc.add(ctx.exc)
        breaks: list[int] = []
        inner = _Ctx(exc=ctx.exc, finallies=ctx.finallies, breaks=breaks,
                     cont=header.index)
        body_ends = self.body(stmt.body, {header.index}, inner)
        self.connect(body_ends, header.index)
        # the else clause runs on normal loop exit; breaks skip it
        ends = self.body(stmt.orelse, {header.index}, ctx)
        return ends | set(breaks)

    def _try(self, stmt: ast.Try, opens: set[int], ctx: _Ctx) -> set[int]:
        outer_exc = ctx.exc
        fin_entry: CFGNode | None = None
        fin_ends: set[int] = set()
        if stmt.finalbody:
            fin_entry = self.new("finally", stmt)
            after_exc = fin_entry.index
        else:
            after_exc = outer_exc
        dispatch = self.new("dispatch", stmt)
        handler_ctx = _Ctx(exc=after_exc,
                           finallies=(ctx.finallies + (fin_entry.index,)
                                      if fin_entry is not None
                                      else ctx.finallies),
                           breaks=ctx.breaks, cont=ctx.cont)
        body_ctx = _Ctx(exc=dispatch.index, finallies=handler_ctx.finallies,
                        breaks=ctx.breaks, cont=ctx.cont)
        body_ends = self.body(stmt.body, opens, body_ctx)
        orelse_ends = self.body(stmt.orelse, body_ends, handler_ctx)
        normal_ends = set(orelse_ends)
        # an exception not matched by any handler propagates outward
        dispatch.succ.add(after_exc)
        for handler in stmt.handlers:
            code = (handler.type,) if handler.type is not None else ()
            hnode = self.new("handler", handler, code)
            dispatch.succ.add(hnode.index)
            normal_ends |= self.body(handler.body, {hnode.index}, handler_ctx)
        if fin_entry is None:
            return normal_ends
        self.connect(normal_ends, fin_entry.index)
        # exceptions raised inside the finally itself propagate outward
        fin_ctx = _Ctx(exc=outer_exc, finallies=ctx.finallies,
                       breaks=ctx.breaks, cont=ctx.cont)
        fin_ends = self.body(stmt.finalbody, {fin_entry.index}, fin_ctx)
        # the finally of an in-flight exception/return re-propagates
        for index in fin_ends:
            self.nodes[index].succ.add(outer_exc)
        return fin_ends


Scope = ast.Module | ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef


def build_cfg(scope: Scope) -> CFG:
    """Build the CFG of one scope's body (function, class body at
    definition time, or module top level)."""
    return _Builder().build(scope.body)


def iter_scopes(tree: ast.Module) -> Iterator[Scope]:
    """Every CFG-bearing scope of a module: the top level, then each
    (arbitrarily nested) function and class body.  Every statement of
    the module belongs to exactly one scope — the builder treats nested
    ``def``/``class`` statements as opaque nodes."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (*FUNCTION_NODES, ast.ClassDef)):
            yield node
