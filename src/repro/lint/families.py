"""The SIM / CACHE / PROTO / PERF rule families.

These rules consume the whole-program model built by
:mod:`repro.lint.project`:

* **SIM** -- misuse of the simulation clock and the probe contract.
  SIM001 is the static counterpart of the CLOCK_BACKWARD runtime law
  (scheduling into the simulated past); SIM002 enforces the
  zero-overhead probe contract (``probe``/``frame_probe`` hooks are
  invoked only under an ``is not None`` guard, so an unarmed run pays
  one pointer compare, never a call).
* **CACHE** -- the content-addressed result cache hashes only the
  :class:`RunSpec`.  Code reachable from a cell function that reads the
  environment/filesystem/cwd (CACHE001) or leans on mutable module
  globals (CACHE002) smuggles inputs past the hash and breaks the
  byte-identical-at-any-job-count guarantee.
* **PROTO** -- static counterparts of the HTTP/2 runtime laws in
  docs/INVARIANTS.md.  PROTO001 (H2_WINDOW_NEGATIVE): a flow-control
  ``consume()`` must be dominated by a ``can_send``/``can_send_data``
  check on every caller chain.  PROTO002 (H2_DATA_ON_RESET_STREAM): no
  DATA/HEADERS emission may follow a reset/CLOSED transition in the
  same function (RST_STREAM/GOAWAY emissions are exempt -- tearing a
  stream down *is* the legal reason to transition first; and DATA after
  a plain END_STREAM close is deliberately legal, the paper's Fig. 4
  duplicate-serve behaviour).
* **PERF** -- accidentally quadratic patterns, flagged only inside
  functions the event loop can actually reach (``list.pop(0)``,
  linear ``in`` on a list) and outside the experiments/interface
  layers where per-run code runs once.
* **LEAK** -- the adversary's information boundary, enforced as an
  interprocedural taint property.  The engine lives in
  :mod:`repro.lint.taint`; it is re-exported here so the LEAK family
  rides the same dispatch surface as the other project-level rules.

Findings cite the reachability witness (file:line call chain) as their
``trace`` and the runtime law they mirror as their ``law``.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import List, Optional, Set, Tuple

from repro.lint.cfg import build_cfg, header_walk
from repro.lint.dataflow import dominators
from repro.lint.findings import Finding
from repro.lint.layers import layer_of
from repro.lint.project import (ModuleContext, Project, dotted_name,
                                parameters, terminal_name)
from repro.lint.rules import (DeterminismVisitor, check_layering,
                              mutable_container, simple_bindings)
from repro.lint.taint import check_taint  # noqa: F401  (family re-export)

#: Harness modules where CACHE rules do not apply: the runner/CLI own
#: the process boundary (cache dir, env overrides) by design.
CACHE_ALLOWED_PREFIXES = ("repro.experiments.runner", "repro.cli",
                          "repro.__main__", "repro.lint")

#: Layers whose code runs once per experiment, not per event: PERF
#: rules stay quiet there.
PERF_EXEMPT_LAYERS = frozenset({"experiments", "interface"})

#: Resolved call targets that read ambient process state.
_CACHE_ENV_SINKS = frozenset({
    "os.getenv", "os.environ.get", "os.environ.items",
    "os.environ.keys", "os.environ.values", "os.getcwd", "os.listdir",
    "os.scandir", "os.walk", "os.stat", "os.path.exists",
    "os.path.isfile", "os.path.isdir", "os.path.getsize",
    "os.path.getmtime", "pathlib.Path.cwd", "pathlib.Path.home",
    "open", "io.open", "tempfile.gettempdir",
})

_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
    "appendleft", "sort", "reverse",
})

_CLOSING_STATE_NAMES = frozenset({"CLOSED"})

#: Frame constructors whose emission after a close is legitimate
#: teardown (RST/GOAWAY) or bookkeeping (WINDOW_UPDATE, SETTINGS ack).
_TEARDOWN_FRAMES = frozenset({
    "RstStreamFrame", "GoAwayFrame", "WindowUpdateFrame",
    "SettingsFrame", "PingFrame",
})

_DATA_FRAMES = frozenset({"DataFrame", "HeadersFrame",
                          "ContinuationFrame", "PushPromiseFrame"})


class FamilyVisitor(DeterminismVisitor):
    """DET rules plus the SIM/CACHE/PROTO002/PERF families.

    Subclasses :class:`DeterminismVisitor` so one traversal serves both
    rule sets (``enabled`` still filters what is emitted) and the
    set/list type inference and qualname tracking are shared.
    """

    def __init__(self, ctx: ModuleContext, enabled: Set[str],
                 project: Project):
        super().__init__(ctx, enabled, project)
        #: Stack of frames of dotted names proven non-None by an
        #: enclosing ``if`` test.
        self._guards: List[Set[str]] = []
        self._module_mutables = self._collect_module_mutables(ctx.tree)
        layer = layer_of(ctx.module)
        self._perf_exempt = (layer is not None
                             and layer[0] in PERF_EXEMPT_LAYERS)
        self._cache_exempt = ctx.module.startswith(CACHE_ALLOWED_PREFIXES)

    @staticmethod
    def _collect_module_mutables(tree: ast.Module) -> Set[str]:
        return {name for _, names, value in simple_bindings(tree.body)
                if mutable_container(value)[0] for name in names}

    # -- reachability lookups -----------------------------------------------

    def _current_key(self):
        qual = self._current_qualname()
        if not qual:
            return None
        return (self.ctx.module, qual)

    def _event_chain(self) -> Optional[List[str]]:
        if self._perf_exempt:
            return None
        key = self._current_key()
        if key is None:
            return None
        return self.project.event_reachable.get(key)

    def _cell_chain(self) -> Optional[List[str]]:
        if self._cache_exempt:
            return None
        key = self._current_key()
        if key is None:
            return None
        return self.project.cell_reachable.get(key)

    # -- None-guard tracking (SIM002) ---------------------------------------

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        self._guards.append(self._nonnull_guards(node.test))
        for stmt in node.body:
            self.visit(stmt)
        self._guards.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    @staticmethod
    def _nonnull_guards(test: ast.AST) -> Set[str]:
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            guards: Set[str] = set()
            for value in test.values:
                guards |= FamilyVisitor._nonnull_guards(value)
            return guards
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.ops[0], ast.IsNot) \
                and isinstance(test.comparators[0], ast.Constant) \
                and test.comparators[0].value is None:
            dotted = dotted_name(test.left)
            return {dotted} if dotted else set()
        if isinstance(test, (ast.Name, ast.Attribute)):
            dotted = dotted_name(test)
            return {dotted} if dotted else set()
        return set()

    def _is_guarded(self, dotted: str) -> bool:
        return any(dotted in frame for frame in self._guards)

    # -- call-site rules ----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_sim001(node)
        self._check_sim002(node)
        self._check_cache001_call(node)
        self._check_cache002_call(node)
        self._check_perf001(node)
        super().visit_Call(node)

    def _check_sim001(self, node: ast.Call) -> None:
        name = terminal_name(node.func)
        if name == "schedule" and node.args:
            delay = node.args[0]
            if isinstance(delay, ast.UnaryOp) \
                    and isinstance(delay.op, ast.USub) \
                    and isinstance(delay.operand, ast.Constant) \
                    and isinstance(delay.operand.value, (int, float)):
                self._emit(node, "SIM001",
                           "negative delay schedules into the simulated "
                           "past; the engine raises at runtime",
                           law="CLOCK_BACKWARD")
        elif name == "schedule_at" and node.args:
            when = node.args[0]
            if isinstance(when, ast.BinOp) and isinstance(when.op, ast.Sub):
                left = dotted_name(when.left)
                if left is not None and (left == "now"
                                         or left.endswith(".now")):
                    self._emit(node, "SIM001",
                               "schedule_at(now - x) targets the "
                               "simulated past; the engine raises at "
                               "runtime", law="CLOCK_BACKWARD")

    def _check_sim002(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute) \
                or node.func.attr not in ("probe", "frame_probe"):
            return
        dotted = dotted_name(node.func)
        if dotted is None or self._is_guarded(dotted):
            return
        self._emit(node, "SIM002",
                   f"{dotted}(...) invoked without an "
                   f"'if {dotted} is not None' guard; the hook is "
                   "Optional and the zero-overhead contract requires "
                   "the guard")

    def _check_cache001_call(self, node: ast.Call) -> None:
        chain = self._cell_chain()
        if chain is None:
            return
        resolved = self._resolve(node.func)
        if resolved in _CACHE_ENV_SINKS:
            self._emit(node, "CACHE001",
                       f"{resolved}() reads ambient process state inside "
                       "cell-reachable code; the result cache hashes "
                       "only the RunSpec, so this input escapes the "
                       "cache key", trace=tuple(chain))

    def visit_Subscript(self, node: ast.Subscript) -> None:
        chain = self._cell_chain()
        if chain is not None:
            resolved = self._resolve(node.value)
            if resolved == "os.environ":
                self._emit(node, "CACHE001",
                           "os.environ[...] read inside cell-reachable "
                           "code; the result cache hashes only the "
                           "RunSpec", trace=tuple(chain))
        self.generic_visit(node)

    def _check_cache002_call(self, node: ast.Call) -> None:
        chain = self._cell_chain()
        if chain is None:
            return
        if isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in self._module_mutables \
                and node.func.attr in _MUTATOR_METHODS:
            self._emit(node, "CACHE002",
                       f"mutating module-global "
                       f"'{node.func.value.id}' in cell-reachable code; "
                       "state leaks across runs within a worker "
                       "process", trace=tuple(chain))

    def visit_Global(self, node: ast.Global) -> None:
        chain = self._cell_chain()
        if chain is not None:
            self._emit(node, "CACHE002",
                       "'global " + ", ".join(node.names) + "' in "
                       "cell-reachable code; rebinding module state "
                       "leaks across runs within a worker process",
                       trace=tuple(chain))
        self.generic_visit(node)

    def _check_mutating_store(self, target: ast.AST) -> None:
        if isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Name) \
                and target.value.id in self._module_mutables:
            chain = self._cell_chain()
            if chain is not None:
                self._emit(target, "CACHE002",
                           f"item store into module-global "
                           f"'{target.value.id}' in cell-reachable "
                           "code; state leaks across runs within a "
                           "worker process", trace=tuple(chain))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_mutating_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutating_store(node.target)
        self.generic_visit(node)

    def _check_perf001(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
                and node.args[0].value is not False):
            return
        if not self._is_list_expr(node.func.value, None):
            return
        chain = self._event_chain()
        if chain is not None:
            self._emit(node, "PERF001",
                       "list.pop(0) shifts the whole list on every "
                       "event; use collections.deque and popleft()",
                       trace=tuple(chain))

    def visit_Compare(self, node: ast.Compare) -> None:
        for op, comp in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)) \
                    and self._is_list_expr(comp, None):
                chain = self._event_chain()
                if chain is not None:
                    self._emit(node, "PERF002",
                               "linear 'in' on a list inside an "
                               "event-reachable hot path; use a set or "
                               "dict keys", trace=tuple(chain))
                break
        super().visit_Compare(node)

    # -- PROTO002: emission after close, per function -----------------------

    def _leave_function(self, node) -> None:
        close_line: Optional[int] = None
        close_what = ""
        emissions: List[Tuple[ast.Call, str]] = []
        for stmt in self._function_nodes(node):
            line = getattr(stmt, "lineno", None)
            if line is None:
                continue
            closing = self._closing_action(stmt)
            if closing and (close_line is None or line < close_line):
                close_line, close_what = line, closing
            emission = self._frame_emission(stmt)
            if emission:
                emissions.append((stmt, emission))
        if close_line is None:
            return
        for call, what in emissions:
            if call.lineno > close_line:
                self._emit(call, "PROTO002",
                           f"{what} emitted after {close_what} (line "
                           f"{close_line}); a reset/CLOSED stream must "
                           "not carry DATA/HEADERS (teardown frames "
                           "are exempt)", law="H2_DATA_ON_RESET_STREAM")

    @staticmethod
    def _function_nodes(func_node):
        stack = list(ast.iter_child_nodes(func_node))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _closing_action(node: ast.AST) -> str:
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("on_send_rst", "on_recv_rst"):
            return f"{node.func.attr}()"
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Attribute):
                    continue
                if target.attr == "reset" \
                        and isinstance(node.value, ast.Constant) \
                        and node.value.value is True:
                    return "a reset=True transition"
                if target.attr == "state":
                    name = terminal_name(node.value)
                    if name in _CLOSING_STATE_NAMES or (
                            isinstance(node.value, ast.Constant)
                            and node.value.value == "closed"):
                        return "a CLOSED state transition"
        return ""

    @staticmethod
    def _frame_emission(node: ast.AST) -> str:
        if not isinstance(node, ast.Call):
            return ""
        name = terminal_name(node.func)
        if name == "send_data_frame":
            return "send_data_frame()"
        if name in ("send_frame", "_send_frame") and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Call):
                ctor = terminal_name(arg.func)
                if ctor in _DATA_FRAMES:
                    return f"send_frame({ctor})"
        return ""


# -- PROTO001: window decrement domination, whole program -------------------

#: The flow-control window checks PROTO001 looks for.
_CHECK_NAMES = ("can_send", "can_send_data")


def _window_consume_sites(project):
    """(FuncKey, Call) pairs where a flow-control window is consumed."""
    for key, fn in project.functions.items():
        for node in fn.nodes:
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "consume":
                recv = dotted_name(node.func.value)
                if recv and "window" in recv.lower():
                    yield key, node


def _checking_functions(project: Project) -> Set:
    """Functions that perform a window check, directly or via callees."""
    seeds = {key: True for key, fn in project.functions.items()
             if any(isinstance(node, ast.Call)
                    and terminal_name(node.func) in _CHECK_NAMES
                    for node in fn.nodes)}

    def calls_a_check(key, facts) -> Optional[bool]:
        return any(callee in facts
                   for candidates, _ in project.functions[key].calls
                   for callee in candidates) or None

    return set(project.propagate(seeds, calls_a_check))


class _CheckedRegion:
    """The lines of one function dominated by a window check.

    A *check event* is a direct ``can_send``/``can_send_data`` call or a
    call to a checking function (the :func:`_checking_functions`
    fixpoint).  Marking is flow-sensitive on the function's CFG:

    * check in an ``if``/``while`` **test**: only the success branch is
      checked -- the ``true`` successor (or the ``false`` successor for
      a negated ``if not can_send():`` guard) plus every block it
      dominates.  The untaken branch stays unchecked, which is exactly
      the ``else: consume()`` false negative the old reverse-BFS missed.
    * check in a plain **statement** (``eligible = self._filter()``):
      later statements in its own block plus every block it strictly
      dominates.
    """

    def __init__(self, project: Project, fn, checking: Set):
        self.lines: Set[int] = set()
        cfg = build_cfg(fn.node)
        dom = dominators(cfg)

        block_lines: dict = {}
        for bid, block in cfg.blocks.items():
            for stmt in block.statements:
                for node in header_walk(stmt):
                    line = getattr(node, "lineno", None)
                    if line is not None:
                        block_lines.setdefault(bid, set()).add(line)

        def is_check_call(node: ast.AST) -> bool:
            if not isinstance(node, ast.Call):
                return False
            if terminal_name(node.func) in _CHECK_NAMES:
                return True
            candidates = project.resolve(node.func, fn)
            return bool(candidates) and all(c in checking
                                            for c in candidates)

        def mark_dominated(root: int, strict: bool) -> None:
            for bid, lines in block_lines.items():
                if root in dom.get(bid, set()) \
                        and not (strict and bid == root):
                    self.lines |= lines

        _COMPOUND = (ast.If, ast.While, ast.For, ast.AsyncFor, ast.Try,
                     ast.With, ast.AsyncWith, ast.Match, ast.FunctionDef,
                     ast.AsyncFunctionDef, ast.ClassDef)
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, (ast.If, ast.While)):
                if not any(is_check_call(n) for n in ast.walk(stmt.test)):
                    continue
                negated = isinstance(stmt.test, ast.UnaryOp) \
                    and isinstance(stmt.test.op, ast.Not)
                want = "false" if negated else "true"
                for edge in cfg.edges:
                    if edge.kind == want and edge.lineno == stmt.lineno:
                        mark_dominated(edge.target, strict=False)
            elif isinstance(stmt, ast.stmt) \
                    and not isinstance(stmt, _COMPOUND):
                if not any(is_check_call(n) for n in ast.walk(stmt)):
                    continue
                bid = cfg.block_of_stmt(stmt)
                if bid is None:
                    continue
                mark_dominated(bid, strict=True)
                self.lines |= {line for line
                               in block_lines.get(bid, set())
                               if line > stmt.lineno}

    def line_checked(self, lineno: int) -> bool:
        return lineno in self.lines


def check_window_paths(project: Project,
                       enabled: Set[str]) -> List[Finding]:
    """PROTO001: a window ``consume()`` must be *dominated* by a
    ``can_send``/``can_send_data`` check -- true CFG dominance inside
    the function, composed with caller-chain pruning (a caller whose
    call site sits inside its own checked region covers that chain;
    depth 6), mirroring the H2_WINDOW_NEGATIVE runtime law."""
    if "PROTO001" not in enabled:
        return []
    checking = _checking_functions(project)
    regions: dict = {}

    def region_for(key) -> _CheckedRegion:
        if key not in regions:
            regions[key] = _CheckedRegion(
                project, project.functions[key], checking)
        return regions[key]

    findings: List[Finding] = []
    for key, call in _window_consume_sites(project):
        if region_for(key).line_checked(call.lineno):
            continue
        fn = project.functions[key]
        # BFS up the reverse call graph looking for an unchecked chain
        # that dead-ends at a root (nothing above it performs the check
        # on the path to this call site).  A caller whose call site sits
        # inside its checked region dominates that chain and is pruned.
        parents = {key: None}
        frontier = deque([(key, 0)])
        witness = None
        while frontier and witness is None:
            current, depth = frontier.popleft()
            callers = project.reverse_calls.get(current, [])
            if not callers:
                # Unchecked entry point (seed, public API, or the
                # consume function itself if nothing calls it).
                witness = current
                break
            if depth >= 6:
                continue
            for caller, lineno in callers:
                if caller in parents:
                    continue
                if region_for(caller).line_checked(lineno):
                    continue  # chain dominated by the caller's check
                parents[caller] = (current, lineno)
                frontier.append((caller, depth + 1))
        if witness is None:
            continue
        trace: List[str] = []
        cursor = witness
        while parents[cursor] is not None:
            child, lineno = parents[cursor]
            caller_fn = project.functions[cursor]
            child_fn = project.functions[child]
            trace.append(f"{caller_fn.path}:{lineno}: "
                         f"{caller_fn.qualname}() calls "
                         f"{child_fn.qualname}() without a window check")
            cursor = child
        root_fn = project.functions[witness]
        trace.insert(0, f"{root_fn.location()}: entry "
                        f"{root_fn.qualname}() performs no "
                        "can_send()/can_send_data() check")
        findings.append(Finding(
            path=fn.path, line=call.lineno, col=call.col_offset,
            code="PROTO001",
            message=(f"window consume() in {fn.qualname}() is not "
                     "dominated by a can_send()/can_send_data() check "
                     "on every caller chain"),
            trace=tuple(trace), law="H2_WINDOW_NEGATIVE"))
    return findings


# -- DOS: slow-DoS code shapes over reachability ----------------------------

#: Call names that read from a peer (a loop around one of these stalls
#: for as long as the peer cares to dribble bytes).
_RECV_NAME_PREFIXES = ("recv", "read", "wait", "poll", "accept")

#: Identifier fragments that signal the loop is bounded (a deadline, a
#: byte/iteration budget, or a clock comparison).
_DOS_GUARD_TOKENS = ("timeout", "deadline", "budget", "watermark",
                     "max", "limit", "remaining", "expires", "now")

#: Event-handler naming convention: these functions receive
#: peer-controlled arguments from the event loop.
_HANDLER_PREFIXES = ("on_", "_on_", "handle_", "_handle_")

#: Identifier fragments that signal growth of the container is bounded.
_BOUND_TOKENS = ("max", "limit", "capacity", "watermark", "maxlen",
                 "depth", "budget", "cap", "bound")


def _identifiers(node: ast.AST):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.keyword) and child.arg:
            yield child.arg


def _has_token(node: ast.AST, tokens) -> bool:
    return any(any(token in ident.lower() for token in tokens)
               for ident in _identifiers(node))


def _has_len_guard(fn_node) -> bool:
    """A ``len(...)`` comparison anywhere in the function."""
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Compare):
            for side in [node.left] + list(node.comparators):
                if isinstance(side, ast.Call) \
                        and terminal_name(side.func) == "len":
                    return True
    return False


def _tainted_names(fn_node) -> Set[str]:
    """Parameters plus locals assigned from tainted expressions
    (fixpoint, so statement order does not matter)."""
    tainted = {a.arg for a in parameters(fn_node.args)} - {"self"}
    assigns = [node for node in ast.walk(fn_node)
               if isinstance(node, ast.Assign)]
    changed = True
    while changed:
        changed = False
        for node in assigns:
            uses = {n.id for n in ast.walk(node.value)
                    if isinstance(n, ast.Name)}
            if not (uses & tainted):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and target.id not in tainted:
                    tainted.add(target.id)
                    changed = True
    return tainted


def check_dos_paths(project: Project, enabled: Set[str]) -> List[Finding]:
    """DOS001/DOS002: slow-DoS shapes on peer-reachable paths.

    DOS001 flags a ``while`` loop around a receive-style call inside
    dispatch-reachable code with no timeout/deadline/budget token in
    the loop -- the slow-read stall a peer can park forever.  DOS002
    flags an event-reachable handler appending peer-derived input to
    instance state with no ``len()`` comparison or bound token anywhere
    in the function -- the unbounded-queue memory shape.
    """
    findings: List[Finding] = []
    if "DOS001" in enabled:
        for key in sorted(project.dispatch_reachable):
            fn = project.functions[key]
            for node in fn.nodes:
                if not isinstance(node, ast.While):
                    continue
                recv_calls = [
                    c for c in ast.walk(node)
                    if isinstance(c, ast.Call)
                    and (terminal_name(c.func) or "").startswith(
                        _RECV_NAME_PREFIXES)]
                if not recv_calls or _has_token(node, _DOS_GUARD_TOKENS):
                    continue
                recv = recv_calls[0]
                trace = tuple(project.dispatch_reachable[key]) + (
                    f"{fn.path}:{recv.lineno}: the loop body calls "
                    f"{terminal_name(recv.func)}() with no "
                    "timeout/deadline in scope",)
                findings.append(Finding(
                    path=fn.path, line=node.lineno, col=node.col_offset,
                    code="DOS001",
                    message=(f"peer-driven receive loop in "
                             f"{fn.qualname}() has no timeout, deadline, "
                             "or budget; a slow peer stalls the "
                             "dispatcher indefinitely"),
                    trace=trace, law="DOS_SLOW_READ"))
    if "DOS002" in enabled:
        for key in sorted(project.event_reachable):
            fn = project.functions[key]
            if not fn.name.startswith(_HANDLER_PREFIXES):
                continue
            if _has_len_guard(fn.node) or _has_token(fn.node,
                                                     _BOUND_TOKENS):
                continue
            tainted = _tainted_names(fn.node)
            if not tainted:
                continue
            for node in fn.nodes:
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("append", "appendleft")):
                    continue
                recv = dotted_name(node.func.value)
                if not recv or not recv.startswith("self."):
                    continue
                feeds = any(isinstance(n, ast.Name) and n.id in tainted
                            for arg in node.args
                            for n in ast.walk(arg))
                if not feeds:
                    continue
                trace = tuple(project.event_reachable[key]) + (
                    f"{fn.path}:{node.lineno}: peer-derived value "
                    f"appended to {recv} with no size guard in "
                    f"{fn.qualname}()",)
                findings.append(Finding(
                    path=fn.path, line=node.lineno, col=node.col_offset,
                    code="DOS002",
                    message=(f"unbounded append to {recv} in "
                             f"event-reachable handler {fn.qualname}(); "
                             "peer input grows instance state with no "
                             "len()/limit guard"),
                    trace=trace, law="DOS_UNBOUNDED_QUEUE"))
    return findings


def check_module_all(ctx: ModuleContext, enabled: Set[str],
                     project: Project) -> List[Finding]:
    """Run DET + SIM/CACHE/PROTO002/PERF over one module (PROTO001,
    RES, and DOS are project-level; see :func:`check_window_paths`,
    :func:`repro.lint.typestate.check_lifecycles`, and
    :func:`check_dos_paths`)."""
    visitor = FamilyVisitor(ctx, enabled, project)
    visitor.visit(ctx.tree)
    findings = visitor.findings + check_layering(ctx, enabled)
    findings.sort(key=lambda f: f.sort_key())
    return findings
