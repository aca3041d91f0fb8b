"""Whole-program model: symbol table, call graph, and reachability.

One :class:`Project` is built per lint run from every parsed module,
and every rule entry point takes it.  It is the one home of the
analyzer's shared plumbing:

* **AST helpers** -- :func:`dotted_name`, :func:`terminal_name`,
  :func:`collect_aliases`, :func:`is_set_annotation` and
  :func:`parameters`, used by every rule module;
* **the parsed module** -- :class:`ModuleContext`, whose import-alias
  table is computed once when the module is parsed;
* **one body walk per function** -- :attr:`FunctionInfo.nodes`, filled
  once at indexing, which the call extraction, the summaries and the
  PROTO/RES/DOS/LEAK rules all read instead of re-walking the body;
* **one call-graph fixpoint** -- :meth:`Project.propagate`, which turns
  per-function seed facts plus a caller-from-callees rule into a
  whole-program summary.  The set-returning summary below, the RES
  releasing-parameter summary and the PROTO001 window-checking summary
  are all defined on it.

On top of those it computes:

* **set-returning summaries** -- which functions return ``set`` /
  ``frozenset`` values, directly or through other helpers, so DET001
  catches a set that escapes a utility and is iterated
  order-sensitively modules away (with the full escape path);
* **event-loop reachability** -- the closure of functions the
  discrete-event loop can enter: callbacks handed to
  ``schedule``/``schedule_at`` plus functions registered on ``on_*`` /
  ``probe`` / ``frame_probe`` hooks.  PERF rules only fire inside it;
* **cell reachability** -- the closure of functions reachable from
  :class:`RunSpec` cell functions (resolved from their
  ``"module:function"`` dotted-path strings), where CACHE rules police
  the content-addressed cache contract;
* **reverse call edges** with file:line call sites, so PROTO001 can
  walk caller chains looking for a flow-control window check.

Call resolution is deliberately simple (stdlib ``ast`` only, no type
inference): plain names resolve through the module's imports and local
definitions, ``self.m()`` resolves within the enclosing class, and any
other ``x.m()`` links to every project function named ``m``
(class-hierarchy analysis by name).  That over-approximates reachability
-- acceptable for PERF/CACHE, which want recall -- while the precise
DET rules only consume the unambiguous summaries.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    TypeVar)

#: (module, qualname) uniquely names a function in the project.
FuncKey = Tuple[str, str]

#: A per-function fact computed by :meth:`Project.propagate`.
Fact = TypeVar("Fact")

#: Method names too generic to devirtualize by name: linking every
#: ``x.get()`` to every project method called ``get`` would glue
#: unrelated subsystems together.
_GENERIC_NAMES = frozenset({
    "get", "pop", "add", "append", "remove", "clear", "copy", "update",
    "items", "keys", "values", "join", "split", "sort", "close", "open",
    "read", "write", "run", "next", "send",
})

#: Nodes that open a new scope: a function's body walk yields them but
#: does not descend into them.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


# -- AST helpers ------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last name of a Name/Attribute (``c`` in ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """local name -> dotted origin, from every import in the module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def is_set_annotation(node: Optional[ast.AST]) -> bool:
    """``set``/``frozenset``/``Set[...]``/``MutableSet[...]``/... or the
    string form of one (None, a missing annotation, is not)."""
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset")
    if isinstance(node, ast.Subscript):
        return terminal_name(node.value) in (
            "Set", "FrozenSet", "AbstractSet", "MutableSet", "set",
            "frozenset")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return (text in ("set", "frozenset")
                or text.startswith(("Set[", "FrozenSet[", "set[",
                                    "frozenset[")))
    return False


def parameters(args: ast.arguments, kwonly: bool = True,
               variadic: bool = True) -> List[ast.arg]:
    """A signature's parameters in declaration order: positional, then
    keyword-only (``kwonly``), then ``*args``/``**kwargs``
    (``variadic``)."""
    params = list(args.posonlyargs) + list(args.args)
    if kwonly:
        params += args.kwonlyargs
    if variadic:
        params += [extra for extra in (args.vararg, args.kwarg)
                   if extra is not None]
    return params


# -- the model --------------------------------------------------------------

@dataclass
class ModuleContext:
    """One parsed module: everything the rules need to know about it."""

    path: str
    module: str          # dotted name, e.g. "repro.simnet.engine"
    package: str         # containing package ("" outside any package)
    tree: ast.Module
    source: str
    #: local name -> dotted origin of every import, computed once here.
    aliases: Dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.aliases = collect_aliases(self.tree)


@dataclass
class FunctionInfo:
    """One function or method, with its call sites."""

    module: str
    qualname: str            # "f", "Cls.m", "f.<locals>.inner"
    name: str                # bare name
    path: str
    lineno: int
    node: ast.AST
    class_name: Optional[str] = None
    parent: Optional[FuncKey] = None      # enclosing function, if nested
    #: Every node of the body, nested def/class headers included but not
    #: their bodies, in one fixed depth-first order (last child first).
    nodes: Tuple[ast.AST, ...] = ()
    #: Call sites: (candidate callee keys, line number).
    calls: List[Tuple[Tuple[FuncKey, ...], int]] = field(default_factory=list)

    @property
    def key(self) -> FuncKey:
        return (self.module, self.qualname)

    def location(self) -> str:
        return f"{self.path}:{self.lineno}"


def _body_nodes(func_node: ast.AST) -> Tuple[ast.AST, ...]:
    """The walk behind :attr:`FunctionInfo.nodes`."""
    nodes: List[ast.AST] = []
    stack = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))
    return tuple(nodes)


class Project:
    """Symbol table + call graph over every linted module."""

    def __init__(self, modules: Sequence[ModuleContext]):
        self.modules: Dict[str, ModuleContext] = {
            m.module: m for m in modules}
        self.functions: Dict[FuncKey, FunctionInfo] = {}
        #: bare name -> every function key with that name.
        self.by_name: Dict[str, List[FuncKey]] = {}
        #: enclosing function -> the functions defined directly in it.
        self.children: Dict[FuncKey, List[FuncKey]] = {}
        #: Functions whose callback the event loop may invoke (seeds of
        #: event reachability): passed to schedule/schedule_at, or
        #: registered on an ``on_*``/``probe``/``frame_probe`` hook.
        self._event_seeds: Set[FuncKey] = set()
        #: RunSpec cell functions, from "module:function" spec strings.
        self.cell_functions: Set[FuncKey] = set()

        for info in modules:
            self._index_module(info, info.tree, None, "", None)
        self._extract_calls_and_seeds()
        self.set_returning = self._summarize_set_returns()
        self.event_reachable: Dict[FuncKey, List[str]] = {}
        self._close_reachable(self._event_seeds, self.event_reachable,
                              "event loop enters")
        self.cell_reachable: Dict[FuncKey, List[str]] = {}
        self._close_reachable(self.cell_functions, self.cell_reachable,
                              "cell function")
        # Server dispatch reachability: the closure of functions the
        # frame/packet dispatchers can enter with peer-controlled input
        # (DOS rules fire only inside it).
        dispatch_seeds = {
            key for key, fn in self.functions.items()
            if fn.name.startswith("handle_")
            or fn.name in ("dispatch", "_dispatch")}
        self.dispatch_reachable: Dict[FuncKey, List[str]] = {}
        self._close_reachable(dispatch_seeds, self.dispatch_reachable,
                              "peer-driven dispatch enters")
        self.reverse_calls: Dict[FuncKey, List[Tuple[FuncKey, int]]] = {}
        for key, info in self.functions.items():
            for candidates, lineno in info.calls:
                for callee in candidates:
                    self.reverse_calls.setdefault(callee, []).append(
                        (key, lineno))

    # -- indexing -----------------------------------------------------------

    def _index_module(self, info: ModuleContext, node: ast.AST,
                      class_name: Optional[str], prefix: str,
                      parent: Optional[FuncKey]) -> None:
        # A method, not a recursive closure: a closure that calls itself
        # is a reference cycle, and it would keep the whole Project
        # alive until the cyclic garbage collector happens to run.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                fn = FunctionInfo(
                    module=info.module, qualname=qualname,
                    name=child.name, path=info.path,
                    lineno=child.lineno, node=child,
                    class_name=class_name, parent=parent,
                    nodes=_body_nodes(child))
                if fn.key not in self.functions and parent is not None:
                    self.children.setdefault(parent, []).append(fn.key)
                self.functions[fn.key] = fn
                self.by_name.setdefault(child.name, []).append(fn.key)
                self._index_module(info, child, None,
                                   qualname + ".<locals>.", fn.key)
            elif isinstance(child, ast.ClassDef):
                self._index_module(info, child, child.name,
                                   prefix + child.name + ".", parent)
            else:
                self._index_module(info, child, class_name, prefix, parent)

    # -- call extraction ----------------------------------------------------

    def resolve(self, node: ast.AST,
                owner: FunctionInfo) -> Tuple[FuncKey, ...]:
        """Candidate functions a Name/Attribute reference inside
        ``owner`` may denote."""
        info = self.modules[owner.module]
        if isinstance(node, ast.Name):
            local = self._lookup_local(info, owner, node.id)
            if local:
                return local
            origin = info.aliases.get(node.id)
            if origin:
                imported = self._lookup_imported(origin)
                if imported:
                    return imported
            return ()
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is None:
                return ()
            head = dotted.split(".")[0]
            if head == "self" and owner.class_name:
                prefix = owner.class_name + "."
                key = (info.module, prefix + node.attr)
                if key in self.functions:
                    return (key,)
            origin = info.aliases.get(head)
            if origin:
                imported = self._lookup_imported(
                    origin + dotted[len(head):])
                if imported:
                    return imported
            # CHA by name: x.m() may be any project method named m.
            if node.attr in _GENERIC_NAMES or node.attr.startswith("__"):
                return ()
            return tuple(self.by_name.get(node.attr, ()))
        return ()

    def _lookup_local(self, info: ModuleContext, owner: FunctionInfo,
                      name: str) -> Tuple[FuncKey, ...]:
        """A bare name: sibling nested function, then module-level."""
        scope = owner.qualname
        while True:
            prefix = scope + ".<locals>." if scope else ""
            key = (info.module, prefix + name)
            if key in self.functions:
                return (key,)
            if "." not in scope:
                break
            scope = scope.rsplit(".<locals>.", 1)[0]
            if ".<locals>." not in scope and "." in scope:
                scope = ""  # class methods do not nest further
        key = (info.module, name)
        if key in self.functions:
            return (key,)
        return ()

    def _lookup_imported(self, dotted: str) -> Tuple[FuncKey, ...]:
        """``pkg.mod.fn`` or ``pkg.mod.Cls.m`` -> project key."""
        for split in range(len(dotted.split(".")), 0, -1):
            parts = dotted.split(".")
            module, qual = ".".join(parts[:split]), ".".join(parts[split:])
            if module in self.modules and qual:
                key = (module, qual)
                if key in self.functions:
                    return (key,)
        return ()

    def _extract_calls_and_seeds(self) -> None:
        for key, fn in self.functions.items():
            for node in fn.nodes:
                if isinstance(node, ast.Call):
                    self._record_call(node, fn)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    self._record_hook_assignment(node, fn)
                elif isinstance(node, ast.Return) and node.value is not None:
                    # A returned closure escapes its parent (the
                    # monitors' probe-factory pattern).
                    for ref in self.resolve(node.value, fn):
                        if self.functions[ref].parent == key:
                            self._event_seeds.add(ref)
        # Module-level cell-spec strings (CELL = "pkg.mod:fn" tables,
        # RunSpec.make calls outside any function).
        for minfo in self.modules.values():
            for node in ast.walk(minfo.tree):
                if isinstance(node, ast.Call):
                    self._record_cell_spec(node, minfo)

    def _record_call(self, node: ast.Call, fn: FunctionInfo) -> None:
        candidates = self.resolve(node.func, fn)
        if candidates:
            fn.calls.append((candidates, node.lineno))
        terminal = terminal_name(node.func)
        if terminal in ("schedule", "schedule_at"):
            # schedule(delay, callback, *args) / schedule_at(when, cb, ...)
            for arg in node.args[1:2]:
                self._event_seeds.update(self.resolve(arg, fn))
        elif terminal == "listen":
            # Accept callbacks are registered positionally and invoked
            # by the stack on inbound connections: TcpStack.listen(port,
            # on_accept) / QuicEndpoint.listen(on_accept).  Seed every
            # resolvable argument.
            for arg in node.args:
                self._event_seeds.update(self.resolve(arg, fn))
        for kw in node.keywords:
            if kw.arg and (kw.arg.startswith("on_")
                           or kw.arg in ("probe", "frame_probe",
                                         "callback")):
                self._event_seeds.update(self.resolve(kw.value, fn))
        self._record_cell_spec(node, self.modules[fn.module])

    def _record_hook_assignment(self, node: ast.AST,
                                fn: FunctionInfo) -> None:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        value = node.value
        if value is None:
            return
        hooked = any(isinstance(t, ast.Attribute)
                     and (t.attr.startswith("on_")
                          or t.attr in ("probe", "frame_probe"))
                     for t in targets)
        if hooked:
            self._event_seeds.update(self.resolve(value, fn))

    def _record_cell_spec(self, node: ast.Call, info: ModuleContext) -> None:
        """``RunSpec.make("mod:fn", ...)`` / ``RunSpec(fn="mod:fn")`` /
        ``grid("mod:fn", ...)`` / ``Experiment(cell="mod:fn", ...)``."""
        terminal = terminal_name(node.func)
        dotted = dotted_name(node.func) or ""
        if not (terminal in ("RunSpec", "grid", "Experiment")
                or (terminal == "make" and "RunSpec" in dotted)):
            return
        spec_args = list(node.args[:1]) + [kw.value for kw in node.keywords
                                           if kw.arg in ("fn", "cell")]
        for arg in spec_args:
            text = self._constant_str(arg, info)
            if text and ":" in text:
                module, _, qual = text.partition(":")
                key = (module, qual)
                if key in self.functions:
                    self.cell_functions.add(key)

    def _constant_str(self, node: ast.AST,
                      info: ModuleContext) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            for stmt in info.tree.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) \
                                and target.id == node.id \
                                and isinstance(stmt.value, ast.Constant) \
                                and isinstance(stmt.value.value, str):
                            return stmt.value.value
        return None

    # -- the call-graph fixpoint --------------------------------------------

    def propagate(self, seeds: Dict[FuncKey, Fact],
                  rule: Callable[[FuncKey, Dict[FuncKey, Fact]],
                                 Optional[Fact]],
                  ) -> Dict[FuncKey, Fact]:
        """Whole-program summary: ``seeds`` plus every fact ``rule``
        derives from callees' facts, iterated to a fixpoint.

        ``rule(key, facts)`` returns the caller's fact given the facts
        known so far (None: no fact yet).  Functions are visited
        round-robin in index order and a new fact is visible to the
        rest of the same round, so a rule that keeps the first fact it
        derives yields the same witness on every run.  The rule must be
        monotone (a fact, once derived, only grows) for the loop to
        terminate.
        """
        facts = dict(seeds)
        changed = True
        while changed:
            changed = False
            for key in self.functions:
                fact = rule(key, facts)
                if fact is not None and fact != facts.get(key):
                    facts[key] = fact
                    changed = True
        return facts

    # -- summaries ----------------------------------------------------------

    def _summarize_set_returns(self) -> Dict[FuncKey, List[str]]:
        """Functions that return set/frozenset values, each mapped to its
        provenance chain -- ``file:line: note`` hops ending at the set's
        origin."""
        local_sets: Dict[FuncKey, List[str]] = {}
        call_returns: Dict[FuncKey, List[Tuple[FuncKey, int]]] = {}
        for key, fn in self.functions.items():
            if is_set_annotation(getattr(fn.node, "returns", None)):
                local_sets[key] = [f"{fn.location()}: {fn.qualname}() is "
                                   "annotated to return a set"]
                continue
            set_names = self._local_set_names(fn)
            for node in fn.nodes:
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                value = node.value
                if self._is_set_literal(value, set_names):
                    local_sets.setdefault(key, [
                        f"{fn.path}:{node.lineno}: {fn.qualname}() "
                        "returns a set built here"])
                elif isinstance(value, ast.Call):
                    candidates = self.resolve(value.func, fn)
                    if len(candidates) == 1:
                        call_returns.setdefault(key, []).append(
                            (candidates[0], node.lineno))

        def returned_set(key: FuncKey, facts) -> Optional[List[str]]:
            if key in facts:
                return facts[key]
            for callee, lineno in call_returns.get(key, ()):
                if callee in facts:
                    fn = self.functions[key]
                    return [f"{fn.path}:{lineno}: {fn.qualname}() returns "
                            f"{self.functions[callee].qualname}()"
                            ] + facts[callee]
            return None

        return self.propagate(local_sets, returned_set)

    @staticmethod
    def _local_set_names(fn: FunctionInfo) -> Set[str]:
        names: Set[str] = set()
        for node in fn.nodes:
            if isinstance(node, ast.Assign):
                if Project._is_set_literal(node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name) \
                    and is_set_annotation(node.annotation):
                names.add(node.target.id)
        return names

    @staticmethod
    def _is_set_literal(node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (Project._is_set_literal(node.left, set_names)
                    or Project._is_set_literal(node.right, set_names))
        return False

    # -- reachability -------------------------------------------------------

    def _close_reachable(self, seeds: Set[FuncKey],
                         out: Dict[FuncKey, List[str]],
                         seed_label: str) -> None:
        """BFS closure over call edges, recording one witness path per
        function: ``file:line: note`` hops from a seed to it."""
        frontier: deque = deque()
        for seed in sorted(seeds):
            fn = self.functions.get(seed)
            if fn is None:
                continue
            out[seed] = [f"{fn.location()}: {seed_label} "
                         f"{fn.qualname}()"]
            frontier.append(seed)
        while frontier:
            key = frontier.popleft()
            fn = self.functions[key]
            for candidates, lineno in fn.calls:
                for callee in candidates:
                    if callee in out:
                        continue
                    callee_fn = self.functions[callee]
                    out[callee] = out[key] + [
                        f"{fn.path}:{lineno}: {fn.qualname}() calls "
                        f"{callee_fn.qualname}()"]
                    frontier.append(callee)
            # A nested closure runs when its parent runs.
            for child_key in self.children.get(key, ()):
                if child_key not in out:
                    child = self.functions[child_key]
                    out[child_key] = out[key] + [
                        f"{child.location()}: {child.qualname} is "
                        f"defined inside {fn.qualname}()"]
                    frontier.append(child_key)

    # -- lookups used by the rules ------------------------------------------

    def set_call_chain(self, node: ast.Call, module: str,
                       owner_qualname: str) -> Optional[List[str]]:
        """If ``node`` calls a set-returning function, its provenance."""
        candidates = self.resolve(node.func,
                                  self._owner_for(module, owner_qualname))
        if len(candidates) == 1 and candidates[0] in self.set_returning:
            return list(self.set_returning[candidates[0]])
        return None

    def _owner_for(self, module: str, qualname: str) -> FunctionInfo:
        key = (module, qualname)
        if key in self.functions:
            return self.functions[key]
        info = self.modules[module]
        class_name = None
        if "." in qualname:
            head = qualname.split(".")[0]
            class_name = head or None
        return FunctionInfo(module=module, qualname=qualname,
                            name=qualname.split(".")[-1], path=info.path,
                            lineno=0, node=info.tree,
                            class_name=class_name)
