"""Pipeline-effects rules (PIPE0xx).

The pipeline compiler (``repro.congest.pipeline``) plans phase fusion from
each protocol's declared :class:`PhaseEffects` — an ``effects()``
declaration that omits a context key the hooks actually touch can validate
a plan whose dataflow is wrong.  PIPE001 keeps declarations
honest: every ``ctx.state[...]`` / ``ctx.globals[...]`` key a hook touches
with a statically resolvable name must appear in the declaration.

The check is deliberately conservative, both ways:

* **Usage side** — only string-literal keys and module-level string
  constants resolve; ``self.*`` attributes, call results and other dynamic
  keys are skipped (the declaration names them via the same dynamic
  spelling, which no static check can match up).
* **Declaration side** — a category containing an unresolvable element
  (``self.participant_key``, ``Outbox.STATE_KEY``) is treated as *open*:
  any usage key may be covered by it, so nothing in that category is
  reported.  A declaration composed dynamically (``.merged(...)``,
  ``super().effects()``, ``self.extra_effects``) makes the whole class
  uncheckable and is skipped entirely.

A protocol that does not define ``effects()`` in its own body is out of
scope — undeclared phases are legal (the compiler plans them as opaque
singletons); only *lying* declarations are findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.core import SEVERITY_ERROR, LintFinding, ModuleUnit, rule
from repro.lint.rules._helpers import walk_function

#: ``PhaseEffects`` keyword -> the declaration category it feeds.
_DECLARED_KEYWORDS = ("reads", "writes", "globals_read")

#: Dict-style accessor methods on the context containers and the
#: (reads, writes) roles each implies for its key argument.
_ACCESSOR_ROLES = {
    "get": (True, False),
    "setdefault": (True, True),
    "pop": (True, True),
}


def _module_string_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``KEY_FOO = "foo"`` bindings (the key-naming idiom)."""
    constants: Dict[str, str] = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Name)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            constants[targets[0].id] = value.value
    return constants


def _resolve_key(node: ast.AST, constants: Dict[str, str]) -> Optional[str]:
    """The string a key expression statically names, or ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


@dataclass
class _Declaration:
    """One class's resolved ``effects()`` declaration."""

    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    globals_read: Set[str] = field(default_factory=set)
    #: Categories containing an element the analyzer could not resolve —
    #: any usage key may be covered by it, so the category is not checked.
    open_categories: Set[str] = field(default_factory=set)

    def covers_state_read(self, key: str) -> bool:
        # A phase legitimately reads back keys it wrote itself.
        if {"reads", "writes"} & self.open_categories:
            return True
        return key in self.reads or key in self.writes

    def covers_state_write(self, key: str) -> bool:
        return "writes" in self.open_categories or key in self.writes

    def covers_global_read(self, key: str) -> bool:
        return "globals_read" in self.open_categories or key in self.globals_read


def _is_phase_effects_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "PhaseEffects"
    return isinstance(func, ast.Attribute) and func.attr == "PhaseEffects"


def _parse_declaration(
    effects_def: ast.AST, constants: Dict[str, str]
) -> Optional[_Declaration]:
    """Resolve the declaration, or ``None`` when it is composed dynamically."""
    declaration = _Declaration()
    inside_literals: Set[int] = set()
    saw_constructor = False
    for node in walk_function(effects_def):
        if isinstance(node, ast.Call) and _is_phase_effects_call(node):
            saw_constructor = True
            inside_literals.add(id(node.func))
            for keyword in node.keywords:
                if keyword.arg is None:  # **kwargs: anything may be declared
                    declaration.open_categories.update(_DECLARED_KEYWORDS)
                    continue
                if keyword.arg not in _DECLARED_KEYWORDS:
                    continue
                category = getattr(declaration, keyword.arg)
                value = keyword.value
                if not isinstance(value, (ast.Tuple, ast.List)):
                    declaration.open_categories.add(keyword.arg)
                    for child in ast.walk(value):
                        inside_literals.add(id(child))
                    continue
                for element in value.elts:
                    resolved = _resolve_key(element, constants)
                    if resolved is None:
                        declaration.open_categories.add(keyword.arg)
                    else:
                        category.add(resolved)
                    for child in ast.walk(element):
                        inside_literals.add(id(child))
    for node in walk_function(effects_def):
        if id(node) in inside_literals:
            continue
        if isinstance(node, ast.Call) and not _is_phase_effects_call(node):
            return None  # .merged(...), super().effects(), helper calls
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return None  # self.extra_effects and friends
    if not saw_constructor:
        return None
    return declaration


def _context_container(node: ast.AST) -> Optional[str]:
    """``"state"`` / ``"globals"`` for ``ctx.state`` / ``ctx.globals``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ctx"
        and node.attr in ("state", "globals")
    ):
        return node.attr
    return None


def _key_usages(
    func: ast.AST, constants: Dict[str, str]
) -> Iterator[Tuple[str, str, bool, ast.AST]]:
    """(container, key, is_write, node) for every resolvable touched key."""
    for node in walk_function(func):
        if isinstance(node, ast.Subscript):
            container = _context_container(node.value)
            if container is None:
                continue
            key = _resolve_key(node.slice, constants)
            if key is None:
                continue
            yield container, key, not isinstance(node.ctx, ast.Load), node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            roles = _ACCESSOR_ROLES.get(node.func.attr)
            container = _context_container(node.func.value)
            if roles is None or container is None or not node.args:
                continue
            key = _resolve_key(node.args[0], constants)
            if key is None:
                continue
            is_read, is_write = roles
            if is_read:
                yield container, key, False, node
            if is_write:
                yield container, key, True, node


@rule(
    "PIPE001",
    SEVERITY_ERROR,
    "the pipeline compiler fuses phases from declared PhaseEffects; "
    "a hook touching a context key the declaration omits "
    "plans dataflow the execution does not honour",
)
def undeclared_effect_key(unit: ModuleUnit) -> Iterator[LintFinding]:
    constants = _module_string_constants(unit.tree)
    for cls in unit.protocol_classes:
        effects_def = None
        for item in cls.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "effects"
            ):
                effects_def = item
                break
        if effects_def is None:
            continue
        declaration = _parse_declaration(effects_def, constants)
        if declaration is None:
            continue
        for hook in unit.hooks:
            if hook.owner is not cls or hook.func is effects_def:
                continue
            for container, key, is_write, node in _key_usages(
                hook.func, constants
            ):
                if container == "state":
                    if is_write and not declaration.covers_state_write(key):
                        yield unit.finding(
                            "PIPE001",
                            node,
                            "%s writes ctx.state[%r] but its effects() "
                            "declaration omits the key from writes"
                            % (cls.name, key),
                        )
                    elif not is_write and not declaration.covers_state_read(key):
                        yield unit.finding(
                            "PIPE001",
                            node,
                            "%s reads ctx.state[%r] but its effects() "
                            "declaration lists the key in neither reads "
                            "nor writes" % (cls.name, key),
                        )
                elif container == "globals" and not is_write:
                    if not declaration.covers_global_read(key):
                        yield unit.finding(
                            "PIPE001",
                            node,
                            "%s reads ctx.globals[%r] but its effects() "
                            "declaration omits the key from globals_read"
                            % (cls.name, key),
                        )
