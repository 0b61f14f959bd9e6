"""Shared-state checker (RPR201, RPR202).

The job graph's ``ThreadJobExecutor`` (``repro serve``'s thread
mode) runs arbitrary stage work on pool threads, and the HTTP service
completes jobs from pool callbacks, so any write to state visible
across threads -- instance attributes, module globals, closure cells
-- from a function reachable from a thread entry point must either
hold a lock or carry a pragma documenting why the race is benign
(single-word dict ops under the GIL, for example).

Entry points recognised syntactically:

* ``Task(fn=X)`` in a function that also passes ``use_threads=True``
  somewhere (the process-pool flows stay exempt);
* ``<pool>.submit(X, ...)`` with a resolvable callable;
* ``<future>.add_done_callback(X)`` (lambdas are followed into the
  ``self._method`` calls they make);
* ``threading.Thread(target=X)`` and ``asyncio.to_thread(X)``.

Reachability is a static call-graph BFS: ``self.method()`` resolves
through the class and its statically known base classes,
``function()`` through the defining module, then package-unique
names.  A write is suppressed when it sits lexically inside a ``with``
whose context expression mentions a lock, and ``__init__`` /
``__new__`` / ``__post_init__`` bodies are exempt (no other thread
holds the object yet).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .base import Finding, SourceFile, dotted_name

_CONSTRUCTORS = {"__init__", "__new__", "__post_init__"}

#: Method names that mutate a container in place.
_MUTATORS = {
    "append",
    "extend",
    "insert",
    "add",
    "remove",
    "discard",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "clear",
}

#: Callables that hand ``target=``/``fn=`` to a thread.
_THREAD_SPAWNERS = {"Thread", "threading.Thread"}


def _mentions_lock(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
    return False


@dataclass
class _FuncRef:
    """A function or method in the project call graph."""

    sf: SourceFile
    node: ast.AST  # FunctionDef / AsyncFunctionDef / Lambda
    cls: Optional[str]  # owning class name, if a method
    name: str

    @property
    def key(self) -> Tuple[str, Optional[str], str]:
        return (self.sf.rel, self.cls, self.name)


@dataclass
class _Project:
    files: Sequence[SourceFile]
    #: class name -> (SourceFile, ClassDef, base class names)
    classes: Dict[str, Tuple[SourceFile, ast.ClassDef, List[str]]] = (
        field(default_factory=dict)
    )
    #: (module rel, func name) -> _FuncRef for module-level functions
    module_funcs: Dict[Tuple[str, str], _FuncRef] = field(
        default_factory=dict
    )
    by_name: Dict[str, List[_FuncRef]] = field(default_factory=dict)
    #: module rel -> names assigned a mutable literal at module level
    module_mutables: Dict[str, Set[str]] = field(default_factory=dict)

    def index(self) -> None:
        for sf in self.files:
            mutables: Set[str] = set()
            for stmt in sf.tree.body:  # type: ignore[attr-defined]
                if isinstance(stmt, ast.ClassDef):
                    bases = [
                        dotted_name(b).split(".")[-1]  # type: ignore
                        for b in stmt.bases
                        if dotted_name(b) is not None
                    ]
                    self.classes[stmt.name] = (sf, stmt, bases)
                elif isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    ref = _FuncRef(
                        sf=sf, node=stmt, cls=None, name=stmt.name
                    )
                    self.module_funcs[(sf.rel, stmt.name)] = ref
                    self.by_name.setdefault(stmt.name, []).append(ref)
                elif isinstance(stmt, ast.Assign):
                    if isinstance(
                        stmt.value,
                        (
                            ast.Dict,
                            ast.List,
                            ast.Set,
                            ast.DictComp,
                            ast.ListComp,
                            ast.SetComp,
                        ),
                    ):
                        for t in stmt.targets:
                            if isinstance(t, ast.Name):
                                mutables.add(t.id)
            self.module_mutables[sf.rel] = mutables

    def resolve_method(
        self, cls: str, name: str
    ) -> Optional[_FuncRef]:
        """Find ``name`` on ``cls`` or its statically known bases."""
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            entry = self.classes.get(current)
            if entry is None:
                continue
            sf, node, bases = entry
            for stmt in node.body:
                if (
                    isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    and stmt.name == name
                ):
                    return _FuncRef(
                        sf=sf, node=stmt, cls=current, name=name
                    )
            queue.extend(bases)
        return None

    def resolve_function(
        self, module: str, name: str
    ) -> Optional[_FuncRef]:
        ref = self.module_funcs.get((module, name))
        if ref is not None:
            return ref
        candidates = self.by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None


# ---------------------------------------------------------------------------
# Entry-point discovery
# ---------------------------------------------------------------------------


def _callable_targets(
    value: ast.expr, owner: Optional[str]
) -> List[Tuple[Optional[str], str]]:
    """(class, name) candidates a callable expression refers to."""
    if isinstance(value, ast.Attribute) and isinstance(
        value.value, ast.Name
    ):
        if value.value.id == "self" and owner is not None:
            return [(owner, value.attr)]
        return []
    if isinstance(value, ast.Name):
        return [(None, value.id)]
    if isinstance(value, ast.Lambda):
        out: List[Tuple[Optional[str], str]] = []
        for node in ast.walk(value.body):
            if isinstance(node, ast.Call):
                out.extend(_callable_targets(node.func, owner))
        return out
    return []


def _find_entries(
    sf: SourceFile,
) -> List[Tuple[Optional[str], str, int]]:
    """(owning class or None, callable name, line) thread entries."""
    entries: List[Tuple[Optional[str], str, int]] = []

    class_stack: List[str] = []

    def visit(node: ast.AST, cls: Optional[str]) -> None:
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                visit(child, node.name)
            return
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            entries.extend(_entries_in_function(node, cls))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(sf.tree, None)
    return entries


def _entries_in_function(
    func: ast.AST, cls: Optional[str]
) -> List[Tuple[Optional[str], str, int]]:
    out: List[Tuple[Optional[str], str, int]] = []
    threaded_scope = False
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if (
                    kw.arg == "use_threads"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    threaded_scope = True
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        attr = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else None
        )
        targets: List[Tuple[Optional[str], str]] = []
        if name in _THREAD_SPAWNERS:
            for kw in node.keywords:
                if kw.arg == "target":
                    targets += _callable_targets(kw.value, cls)
        elif name in {"asyncio.to_thread", "to_thread"} and node.args:
            targets += _callable_targets(node.args[0], cls)
        elif attr == "submit" and node.args:
            targets += _callable_targets(node.args[0], cls)
        elif attr == "add_done_callback" and node.args:
            targets += _callable_targets(node.args[0], cls)
        elif name == "Task" and threaded_scope:
            for kw in node.keywords:
                if kw.arg == "fn":
                    targets += _callable_targets(kw.value, cls)
            if node.args:
                targets += _callable_targets(node.args[0], cls)
        for owner, fn_name in targets:
            out.append((owner, fn_name, node.lineno))
    return out


# ---------------------------------------------------------------------------
# Write detection
# ---------------------------------------------------------------------------


def _with_lock_lines(func: ast.AST) -> Set[int]:
    """Line numbers lexically covered by a lock-holding ``with``."""
    covered: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if any(
                _mentions_lock(item.context_expr)
                for item in node.items
            ):
                end = getattr(node, "end_lineno", node.lineno)
                covered.update(range(node.lineno, end + 1))
    return covered


def _self_aliases(func: ast.AST) -> Dict[str, str]:
    """Local ``name = self.attr`` aliases (mutating the alias mutates
    the shared attribute)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                aliases[target.id] = value.attr
    return aliases


@dataclass
class _Write:
    line: int
    col: int
    what: str
    rule: str


def _writes_in(
    ref: _FuncRef, project: _Project
) -> List[_Write]:
    func = ref.node
    if ref.name in _CONSTRUCTORS:
        return []
    if ref.name.endswith("_locked"):
        # Project convention: a ``*_locked`` helper asserts its
        # callers hold the graph/object lock already.
        return []
    locked = _with_lock_lines(func)
    aliases = _self_aliases(func)
    mutable_globals = project.module_mutables.get(ref.sf.rel, set())
    declared_global: Set[str] = set()
    declared_nonlocal: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            declared_nonlocal.update(node.names)

    writes: List[_Write] = []

    def emit(node: ast.AST, what: str, rule: str) -> None:
        line = getattr(node, "lineno", 0)
        if line in locked:
            return
        writes.append(
            _Write(
                line=line,
                col=getattr(node, "col_offset", 0),
                what=what,
                rule=rule,
            )
        )

    def shared_target(
        target: ast.expr, container_mutation: bool
    ) -> Optional[Tuple[str, str]]:
        """(description, rule) when ``target`` names shared state.

        ``container_mutation`` is True for subscript stores and
        mutating method calls -- the cases where touching a plain
        local alias or module-level name still mutates shared state.
        """
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
            container_mutation = True
        if isinstance(base, ast.Attribute) and isinstance(
            base.value, ast.Name
        ):
            if base.value.id == "self":
                return (f"self.{base.attr}", "RPR201")
            if base.value.id in aliases:
                return (
                    f"self.{aliases[base.value.id]} "
                    f"(via local alias {base.value.id!r})",
                    "RPR201",
                )
        if isinstance(base, ast.Name):
            if base.id in declared_global:
                return (f"global {base.id}", "RPR202")
            if base.id in declared_nonlocal:
                return (f"nonlocal {base.id}", "RPR202")
            if container_mutation and base.id in aliases:
                return (
                    f"self.{aliases[base.id]} "
                    f"(via local alias {base.id!r})",
                    "RPR201",
                )
            if container_mutation and base.id in mutable_globals:
                return (f"module-level {base.id}", "RPR201")
        return None

    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                hit = shared_target(target, False)
                if hit is not None:
                    emit(node, hit[0], hit[1])
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                hit = shared_target(target, True)
                if hit is not None:
                    emit(node, hit[0], hit[1])
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _MUTATORS:
                hit = shared_target(node.func.value, True)
                if hit is not None:
                    emit(
                        node,
                        f"{hit[0]}.{node.func.attr}()",
                        hit[1],
                    )
    return writes


# ---------------------------------------------------------------------------
# Call-graph BFS
# ---------------------------------------------------------------------------


def _callees(
    ref: _FuncRef, project: _Project
) -> List[_FuncRef]:
    out: List[_FuncRef] = []
    for node in ast.walk(ref.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and ref.cls is not None
        ):
            resolved = project.resolve_method(ref.cls, func.attr)
            if resolved is not None:
                out.append(resolved)
        elif isinstance(func, ast.Name):
            resolved = project.resolve_function(
                ref.sf.rel, func.id
            )
            if resolved is not None:
                out.append(resolved)
    # Nested functions run in the same thread when called; they are
    # already inside ref.node's walk for writes, so no extra edge.
    return out


def check_threads(files: Sequence[SourceFile]) -> List[Finding]:
    project = _Project(files=list(files))
    project.index()

    # Seed the BFS with every syntactic entry point.
    queue: List[Tuple[_FuncRef, str]] = []
    seen: Set[Tuple[str, Optional[str], str]] = set()
    for sf in files:
        for owner, name, _line in _find_entries(sf):
            ref: Optional[_FuncRef]
            if owner is not None:
                ref = project.resolve_method(owner, name)
            else:
                ref = project.resolve_function(sf.rel, name)
            if ref is None:
                continue
            entry_label = f"{owner + '.' if owner else ''}{name}"
            if ref.key not in seen:
                seen.add(ref.key)
                queue.append((ref, entry_label))

    findings: List[Finding] = []
    while queue:
        ref, entry = queue.pop(0)
        for write in _writes_in(ref, project):
            findings.append(
                Finding(
                    rule=write.rule,
                    path=ref.sf.rel,
                    line=write.line,
                    col=write.col,
                    message=(
                        f"unlocked write to {write.what} in "
                        f"{ref.name!r}, reachable from thread entry "
                        f"{entry!r}; hold a lock or document the "
                        "benign race with a pragma"
                    ),
                    snippet=ref.sf.snippet(write.line),
                )
            )
        for callee in _callees(ref, project):
            if callee.key not in seen:
                seen.add(callee.key)
                queue.append((callee, entry))
    return findings
