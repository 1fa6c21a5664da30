#!/usr/bin/env python3
"""Repo-invariant linter: determinism and wire-safety rules ruff can't see.

The reproduction's core guarantees — bit-identical records across
executor backends, a non-executable wire protocol, byte-stable codecs —
rest on conventions no general-purpose linter checks.  This tool walks
the source tree with the stdlib ``ast`` module and enforces them:

``no-pickle``
    ``pickle`` (and friends) must never appear under ``src/repro/exec/``
    or ``src/repro/service/``: the wire protocol is versioned JSON
    precisely so that a malicious or corrupted peer can't execute code
    in the orchestrator.  (Workers deserialize *programs*, not objects.)

``unseeded-random``
    Record-determining modules (``sim/``, ``core/campaign.py``,
    ``compiler/``) may only draw randomness through an explicitly seeded
    ``random.Random(seed)`` instance.  Module-level ``random.*`` calls,
    ``time.time()`` and ``os.urandom()`` make record bytes depend on
    when/where a run executed, which silently breaks the
    content-addressed store.

``unordered-set-iteration``
    Codec/serialization functions (``to_json``, ``from_json``,
    ``store_meta``, ``as_meta``, ``to_wire``, ``encode``/``serialize``
    prefixes, ...) must not iterate over ``set``/``frozenset``
    expressions directly — Python set iteration order is
    insertion/hash-dependent, so the emitted bytes stop being
    deterministic.  Wrap the set in ``sorted(...)``.

``no-dynamic-code``
    Calls to the builtins ``exec``, ``eval`` and ``compile`` are findings
    anywhere under ``src/repro`` except ``sim/semantics.py``, which
    compiles the simulator's handler families from its own string
    constants -- and its unit makers from those constants and slot
    names, keyed by unit shape alone.  Workers receive programs over the
    wire, so generated code must come only from module constants, never
    from data: operand values reach it only as maker arguments.

``app-construction``
    Only ``src/repro/apps/`` builds applications.  Elsewhere under
    ``src/repro``, a call to ``create_app``, to an application class (a
    name ending in ``App``) or to the class ``app_class(...)`` returns is
    a finding: the package takes its instances from the registry's
    warm-app cache (``suite_apps``, ``cached_app``), so a process holds
    one compiled, warmed instance per application and parameters.

Exit status 1 when any violation is found.  Self-tested (with seeded
violations) in ``tests/test_lint_invariants.py``.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

#: Modules whose import anywhere under the wire-facing packages is a finding.
PICKLE_MODULES = frozenset({"pickle", "cPickle", "dill", "shelve"})

#: Path prefixes (relative to the repo root, POSIX separators) where
#: ``no-pickle`` applies.
PICKLE_SCOPES = ("src/repro/exec/", "src/repro/service/")

#: Path prefixes/files where ``unseeded-random`` applies.
DETERMINISM_SCOPES = ("src/repro/sim/", "src/repro/compiler/",
                      "src/repro/core/campaign.py")

#: ``module.function`` calls that inject wall-clock or OS entropy.
NONDETERMINISTIC_CALLS = frozenset({
    "time.time", "time.time_ns", "os.urandom", "uuid.uuid4",
})

#: Builtins that turn strings into code.
DYNAMIC_CODE_BUILTINS = frozenset({"exec", "eval", "compile"})

#: Where ``no-dynamic-code`` applies, and the one module exempt from it.
DYNAMIC_CODE_SCOPES = ("src/repro/",)
DYNAMIC_CODE_EXEMPT = "src/repro/sim/semantics.py"

#: Where ``app-construction`` applies, and the package exempt from it.
APP_CONSTRUCTION_SCOPES = ("src/repro/",)
APP_CONSTRUCTION_EXEMPT = "src/repro/apps/"

#: Function-name markers of codec/serialization code (exact names or,
#: for the verb forms, prefixes).
CODEC_NAMES = frozenset({
    "to_json", "from_json", "as_meta", "store_meta", "to_wire",
    "from_wire", "to_text", "as_json",
})
CODEC_PREFIXES = ("encode", "serialize", "dump", "write_meta")


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what to do about it."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _in_scope(relative: str, scopes: Sequence[str]) -> bool:
    return any(relative == scope or relative.startswith(scope)
               for scope in scopes)


def _is_codec_function(name: str) -> bool:
    return name in CODEC_NAMES or name.startswith(CODEC_PREFIXES)


def _dotted_call(node: ast.Call) -> Optional[str]:
    """``module.attr`` for simple attribute calls, else ``None``."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _called_name(func: ast.expr) -> Optional[str]:
    """The name a call's callee ends in (``f`` or ``x.f``), else ``None``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _builds_app(node: ast.Call) -> bool:
    """Whether ``node`` constructs an application instance."""
    name = _called_name(node.func)
    if name is not None:
        return name == "create_app" or (name.endswith("App")
                                        and name[:1].isupper())
    return (isinstance(node.func, ast.Call)
            and _called_name(node.func.func) == "app_class")


def _is_set_expression(node: ast.expr) -> bool:
    """Whether ``node`` evaluates to a set with no ordering applied."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # Set algebra (a | b, a - b, ...) stays a set.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


class _FileLinter(ast.NodeVisitor):
    def __init__(self, relative: str) -> None:
        self.relative = relative
        self.violations: List[Violation] = []
        self._codec_depth = 0
        self._check_pickle = _in_scope(relative, PICKLE_SCOPES)
        self._check_random = _in_scope(relative, DETERMINISM_SCOPES)
        self._check_dynamic = (_in_scope(relative, DYNAMIC_CODE_SCOPES)
                               and relative != DYNAMIC_CODE_EXEMPT)
        self._check_apps = (_in_scope(relative, APP_CONSTRUCTION_SCOPES)
                            and not relative.startswith(
                                APP_CONSTRUCTION_EXEMPT))

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(Violation(
            path=self.relative, line=getattr(node, "lineno", 0),
            rule=rule, message=message))

    # -- no-pickle ------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        if self._check_pickle:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in PICKLE_MODULES:
                    self._report(
                        node, "no-pickle",
                        f"import of {alias.name!r} in wire-facing code; "
                        f"the protocol is versioned JSON by design")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._check_pickle and node.module is not None:
            root = node.module.split(".")[0]
            if root in PICKLE_MODULES:
                self._report(
                    node, "no-pickle",
                    f"import from {node.module!r} in wire-facing code; "
                    f"the protocol is versioned JSON by design")
        self.generic_visit(node)

    # -- unseeded-random, no-dynamic-code and app-construction ----------
    def visit_Call(self, node: ast.Call) -> None:
        if self._check_apps and _builds_app(node):
            self._report(
                node, "app-construction",
                "builds an application outside repro.apps; take it from "
                "apps.registry.suite_apps or cached_app, so the process "
                "keeps one warm instance")
        if self._check_dynamic:
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else _dotted_call(node))
            if (name is not None and name.removeprefix("builtins.")
                    in DYNAMIC_CODE_BUILTINS):
                self._report(
                    node, "no-dynamic-code",
                    f"{name}() turns data into code; only "
                    f"{DYNAMIC_CODE_EXEMPT} may compile source, and only "
                    f"from its own constants")
        if self._check_random:
            dotted = _dotted_call(node)
            if dotted is not None:
                if (dotted.startswith("random.")
                        and dotted != "random.Random"):
                    self._report(
                        node, "unseeded-random",
                        f"{dotted}() uses the shared module-level generator; "
                        f"draw from an explicitly seeded random.Random "
                        f"instance instead")
                elif dotted in NONDETERMINISTIC_CALLS:
                    self._report(
                        node, "unseeded-random",
                        f"{dotted}() makes record-determining code depend "
                        f"on wall clock / OS entropy")
        self.generic_visit(node)

    # -- unordered-set-iteration ---------------------------------------
    def _enter_function(self, node) -> None:
        is_codec = _is_codec_function(node.name)
        if is_codec:
            self._codec_depth += 1
        self.generic_visit(node)
        if is_codec:
            self._codec_depth -= 1

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    def _check_iteration(self, node: ast.AST, iterable: ast.expr) -> None:
        if self._codec_depth > 0 and _is_set_expression(iterable):
            self._report(
                node, "unordered-set-iteration",
                "iterating a set inside a codec function emits "
                "hash-order-dependent bytes; wrap it in sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iteration(node, generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def lint_file(path: Path, root: Path) -> List[Violation]:
    """Lint one Python file; ``root`` anchors the rule scopes."""
    relative = path.resolve().relative_to(root.resolve()).as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    linter = _FileLinter(relative)
    linter.visit(tree)
    return linter.violations


def lint_paths(paths: Iterable[Path],
               root: Optional[Path] = None) -> List[Violation]:
    """Lint files/directories; returns all findings sorted by location."""
    paths = [Path(path) for path in paths]
    anchor = (root or Path.cwd()).resolve()
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    violations: List[Violation] = []
    for file in files:
        violations.extend(lint_file(file, anchor))
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: lint the given paths (default ``src/repro``)."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    targets = [Path(argument) for argument in arguments] or [Path("src/repro")]
    violations = lint_paths(targets, root=root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print("invariants hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
