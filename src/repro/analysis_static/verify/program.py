"""Whole-program model for repro-verify.

Loads every module under the analysed roots *without importing them*
(stdlib ``ast`` only, same constraint as repro-lint), and builds:

* a module table with resolved import aliases and re-exports,
* a function table keyed by dotted qualname (nested functions and
  methods included),
* a class table with method dispatch maps and inferred attribute types,
* a call resolver that maps ``ast.Call`` nodes to qualnames where the
  receiver is decidable (module attribute chains, ``self.``/``cls.``
  dispatch, locals whose type is inferred from annotations or
  constructor/classmethod-constructor assignments).

Resolution is deliberately conservative: anything undecidable resolves
to an :class:`Ref` of kind ``unknown`` and downstream analyses treat it
as effect-free rather than guessing.  The checked
``@declares_effects`` boundaries (see :mod:`.annotations`) exist
precisely so the important seams do not depend on deep resolution.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .annotations import validate_effect

_POLICY_RE = re.compile(r"#\s*repro-verify:\s*policy=([a-z-]+)")

#: Module-path suffixes whose functions must be provably effect-free.
#: These are the batched executors and the analytic energy layer -- the
#: precondition for the bit-identity claims in docs/ALGORITHMS §6c.
PURE_MODULE_SUFFIXES: tuple[str, ...] = (
    "repro/plan/executor.py",
    "repro/core/energy.py",
    "repro/core/gbmodels.py",
    "repro/core/integrals.py",
)


@dataclass(frozen=True)
class Ref:
    """Result of resolving a name or call target."""

    kind: str  # "function" | "class" | "module" | "external" | "unknown"
    target: str  # qualname (function/class/module) or dotted external name
    attr: str | None = None  # attribute name for unresolved attribute calls


@dataclass
class FunctionInfo:
    qualname: str
    modname: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None  # owning class qualname, None for free functions
    lineno: int
    declared: frozenset[str] | None = None  # @declares_effects(...) if present
    decl_line: int | None = None
    bad_decl: str | None = None  # malformed declaration message
    is_classmethod: bool = False
    is_staticmethod: bool = False
    #: Function-local (lazy) imports: local name -> dotted target.
    imports: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    qualname: str
    modname: str
    name: str
    node: ast.ClassDef
    lineno: int
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    bases: list[str] = field(default_factory=list)  # resolvable base exprs (dotted text)
    attr_types: dict[str, str] = field(default_factory=dict)  # self.X -> class qualname


@dataclass
class ModuleInfo:
    path: Path
    modname: str
    tree: ast.Module
    source: str
    lines: list[str]
    imports: dict[str, str] = field(default_factory=dict)  # local name -> dotted target
    defs: dict[str, str] = field(default_factory=dict)  # top-level name -> qualname
    policies: frozenset[str] = frozenset()
    is_package: bool = False

    def is_pure_policy(self) -> bool:
        if "pure" in self.policies:
            return True
        posix = self.path.as_posix()
        return any(posix.endswith(sfx) for sfx in PURE_MODULE_SUFFIXES)


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``.

    ``.../src/repro/plan/builder.py`` maps to ``repro.plan.builder``;
    files outside a recognisable package root (test fixtures) map to
    their stem so fixtures analyse standalone.
    """
    parts = list(path.parts)
    if "src" in parts:
        rel = parts[parts.index("src") + 1 :]
        dotted = ".".join(rel)
        for sfx in (".py",):
            if dotted.endswith(sfx):
                dotted = dotted[: -len(sfx)]
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        return dotted
    # Walk up through package dirs (containing __init__.py).
    names = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        names.insert(0, parent.name)
        parent = parent.parent
    return ".".join(names) if names else path.stem


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for p in paths:
        if p.is_dir():
            yield from sorted(q for q in p.rglob("*.py") if q.is_file())
        elif p.suffix == ".py":
            yield p


def _module_policies(source: str) -> frozenset[str]:
    found = set()
    for line in source.splitlines()[:15]:
        m = _POLICY_RE.search(line)
        if m:
            found.add(m.group(1))
    return frozenset(found)


def _dotted_text(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chain as dotted text, None if not a pure chain."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def receiver_text(node: ast.expr) -> str | None:
    """Stable text for a call receiver (``bundle``, ``pub.bundle``,
    ``self._shm``); None for receivers that are not name/attr chains."""
    return _dotted_text(node)


def _annotation_names(ann: ast.expr | None) -> list[str]:
    """Candidate class names referenced by an annotation expression.

    Handles ``C``, ``"C"``, ``C | None``, ``Optional[C]``, ``mod.C``.
    """
    if ann is None:
        return []
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return []
    if isinstance(ann, ast.Name):
        return [ann.id]
    if isinstance(ann, ast.Attribute):
        dotted = _dotted_text(ann)
        return [dotted] if dotted else []
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        return _annotation_names(ann.left) + _annotation_names(ann.right)
    if isinstance(ann, ast.Subscript):
        base = _annotation_names(ann.value)
        if base and base[0].split(".")[-1] == "Optional":
            return _annotation_names(ann.slice)
        return []
    return []


def _own_import_stmts(fn_node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.stmt]:
    """Import statements in ``fn_node``'s own body (nested defs excluded)."""
    out: list[ast.stmt] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                out.append(child)
            walk(child)

    walk(fn_node)
    return out


def _parse_declaration(
    deco: ast.expr,
) -> tuple[frozenset[str] | None, str | None]:
    """(declared set, error) for a ``@declares_effects(...)`` decorator,
    (None, None) if the decorator is something else."""
    if not isinstance(deco, ast.Call):
        return None, None
    name = _dotted_text(deco.func)
    if name is None or name.split(".")[-1] != "declares_effects":
        return None, None
    effects: set[str] = set()
    if deco.keywords:
        return frozenset(), "declares_effects takes no keyword arguments"
    for arg in deco.args:
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            return frozenset(), "declares_effects arguments must be string literals"
        try:
            effects.add(validate_effect(arg.value))
        except ValueError as exc:
            return frozenset(), str(exc)
    return frozenset(effects), None


class Program:
    """The loaded whole-program model."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._local_types: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, paths: Sequence[Path]) -> "Program":
        prog = cls()
        for path in iter_python_files(paths):
            try:
                source = path.read_text()
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError, OSError):
                continue
            modname = module_name_for(path)
            mod = ModuleInfo(
                path=path,
                modname=modname,
                tree=tree,
                source=source,
                lines=source.splitlines(),
                policies=_module_policies(source),
                is_package=path.name == "__init__.py",
            )
            prog.modules[modname] = mod
        for mod in prog.modules.values():
            prog._index_module(mod)
        for info in prog.classes.values():
            prog._infer_attr_types(info)
        return prog

    @staticmethod
    def _collect_imports(
        mod: ModuleInfo, stmts: Iterable[ast.stmt], into: dict[str, str]
    ) -> None:
        pkg_parts = mod.modname.split(".")
        for node in stmts:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        into[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        into[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # Level 1 anchors at the containing package: for
                    # repro/plan/builder.py that is repro.plan; for the
                    # package module repro/plan/__init__.py it is repro.plan
                    # itself.  Each further level drops one component.
                    container = pkg_parts if mod.is_package else pkg_parts[:-1]
                    drop = node.level - 1
                    anchor = container[: len(container) - drop] if drop else container
                    base = ".".join(anchor + ([node.module] if node.module else []))
                else:
                    base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    into[local] = f"{base}.{alias.name}" if base else alias.name

    def _index_module(self, mod: ModuleInfo) -> None:
        self._collect_imports(mod, mod.tree.body, mod.imports)
        self._index_scope(mod, mod.tree.body, prefix=mod.modname, cls=None)

    def _index_scope(
        self,
        mod: ModuleInfo,
        body: Iterable[ast.stmt],
        prefix: str,
        cls: str | None,
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{node.name}"
                declared: frozenset[str] | None = None
                decl_line: int | None = None
                bad_decl: str | None = None
                is_cm = False
                is_sm = False
                for deco in node.decorator_list:
                    d, err = _parse_declaration(deco)
                    if d is not None or err is not None:
                        declared, decl_line, bad_decl = d, deco.lineno, err
                    dn = _dotted_text(deco)
                    if dn == "classmethod":
                        is_cm = True
                    elif dn == "staticmethod":
                        is_sm = True
                info = FunctionInfo(
                    qualname=qual,
                    modname=mod.modname,
                    name=node.name,
                    node=node,
                    cls=cls,
                    lineno=node.lineno,
                    declared=declared,
                    decl_line=decl_line,
                    bad_decl=bad_decl,
                    is_classmethod=is_cm,
                    is_staticmethod=is_sm,
                )
                # Lazy (function-level) imports resolve like module ones.
                self._collect_imports(mod, _own_import_stmts(node), info.imports)
                self.functions[qual] = info
                if cls is not None and cls in self.classes:
                    self.classes[cls].methods[node.name] = qual
                if prefix == mod.modname:
                    mod.defs[node.name] = qual
                # Nested defs analyse as their own functions.
                self._index_scope(mod, node.body, prefix=qual, cls=None)
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}.{node.name}"
                bases = [b for b in (_dotted_text(x) for x in node.bases) if b]
                cinfo = ClassInfo(
                    qualname=qual,
                    modname=mod.modname,
                    name=node.name,
                    node=node,
                    lineno=node.lineno,
                    bases=bases,
                )
                self.classes[qual] = cinfo
                if prefix == mod.modname:
                    mod.defs[node.name] = qual
                self._index_scope(mod, node.body, prefix=qual, cls=qual)

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve_dotted(self, dotted: str, _depth: int = 0) -> Ref:
        """Resolve a dotted path against the module/def tables."""
        if _depth > 12:
            return Ref("unknown", dotted)
        if dotted in self.functions:
            return Ref("function", dotted)
        if dotted in self.classes:
            return Ref("class", dotted)
        if dotted in self.modules:
            return Ref("module", dotted)
        parts = dotted.split(".")
        # Longest known module prefix.
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                mod = self.modules[prefix]
                head, rest = parts[cut], parts[cut + 1 :]
                ref = self._resolve_in_module(mod, head, _depth + 1)
                if not rest:
                    return ref
                if ref.kind == "class":
                    return self._resolve_class_attr(ref.target, rest, dotted)
                if ref.kind == "module":
                    return self.resolve_dotted(".".join([ref.target] + rest), _depth + 1)
                if ref.kind == "external":
                    return Ref("external", ".".join([ref.target] + rest))
                return Ref("unknown", dotted)
        root = parts[0]
        if root in self.modules or any(m.startswith(root + ".") for m in self.modules):
            return Ref("unknown", dotted)
        return Ref("external", dotted)

    def _resolve_class_attr(self, class_qual: str, rest: list[str], dotted: str) -> Ref:
        if len(rest) == 1:
            fn = self.lookup_method(class_qual, rest[0])
            if fn is not None:
                return Ref("function", fn.qualname)
        return Ref("unknown", dotted, attr=rest[-1])

    def _resolve_in_module(self, mod: ModuleInfo, name: str, depth: int) -> Ref:
        if name in mod.defs:
            return self.resolve_dotted(mod.defs[name], depth)
        if name in mod.imports:
            return self.resolve_dotted(mod.imports[name], depth)
        sub = f"{mod.modname}.{name}"
        if sub in self.modules:
            return Ref("module", sub)
        return Ref("unknown", f"{mod.modname}.{name}")

    def resolve_name(self, mod: ModuleInfo, name: str) -> Ref:
        """Resolve a bare name used at module scope of ``mod``."""
        if name in mod.defs:
            return self.resolve_dotted(mod.defs[name])
        if name in mod.imports:
            return self.resolve_dotted(mod.imports[name])
        import builtins

        if hasattr(builtins, name):
            return Ref("external", f"builtins.{name}")
        return Ref("unknown", f"{mod.modname}.{name}")

    def lookup_method(self, class_qual: str, attr: str, _depth: int = 0) -> FunctionInfo | None:
        if _depth > 8 or class_qual not in self.classes:
            return None
        cinfo = self.classes[class_qual]
        if attr in cinfo.methods:
            return self.functions.get(cinfo.methods[attr])
        mod = self.modules.get(cinfo.modname)
        for base in cinfo.bases:
            if mod is None:
                break
            parts = base.split(".")
            ref = self._resolve_in_module(mod, parts[0], 0)
            if ref.kind == "module" and len(parts) > 1:
                ref = self.resolve_dotted(".".join([ref.target] + parts[1:]))
            if ref.kind == "class":
                found = self.lookup_method(ref.target, attr, _depth + 1)
                if found is not None:
                    return found
        return None

    # ------------------------------------------------------------------
    # Local type inference
    # ------------------------------------------------------------------
    def class_of_expr_type(self, mod: ModuleInfo, names: list[str]) -> str | None:
        for name in names:
            parts = name.split(".")
            ref = self._resolve_in_module(mod, parts[0], 0)
            if ref.kind == "module" and len(parts) > 1:
                ref = self.resolve_dotted(".".join([ref.target] + parts[1:]))
            elif len(parts) > 1 and ref.kind == "class":
                pass
            if ref.kind == "class":
                return ref.target
        return None

    def constructed_class(self, fn: FunctionInfo, call: ast.Call) -> str | None:
        """Class qualname if ``call`` constructs (or classmethod-constructs)
        an analysed class, else None."""
        ref = self.resolve_call(fn, call)
        if ref.kind == "class":
            return ref.target
        if ref.kind == "function":
            callee = self.functions[ref.target]
            if callee.cls is not None and callee.is_classmethod:
                returns = _annotation_names(callee.node.returns)
                cname = self.classes[callee.cls].name if callee.cls in self.classes else ""
                if any(r.split(".")[-1] in (cname, "Self") for r in returns) or not returns:
                    return callee.cls
            returns = _annotation_names(callee.node.returns)
            cmod = self.modules.get(callee.modname)
            if cmod is not None:
                typ = self.class_of_expr_type(cmod, returns)
                if typ is not None:
                    return typ
        return None

    def local_types(self, fn: FunctionInfo) -> dict[str, str]:
        """Map of local variable name -> class qualname, from parameter
        annotations and direct constructor assignments."""
        cached = self._local_types.get(fn.qualname)
        if cached is not None:
            return cached
        mod = self.modules[fn.modname]
        env: dict[str, str] = {}
        args = fn.node.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for a in all_args:
            typ = self.class_of_expr_type(mod, _annotation_names(a.annotation))
            if typ is not None:
                env[a.arg] = typ
        if fn.cls is not None and not fn.is_staticmethod and all_args:
            env.setdefault(all_args[0].arg, fn.cls)
        # Publish the partial env before scanning assignments: resolving a
        # constructor call can re-enter local_types for this same function
        # (receiver typing), which must see the in-progress map, not recurse.
        self._local_types[fn.qualname] = env
        for node in ast.walk(fn.node):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.target is not None:
                targets = [node.target]
                value = node.value
                if isinstance(node.target, ast.Name):
                    typ = self.class_of_expr_type(mod, _annotation_names(node.annotation))
                    if typ is not None:
                        env[node.target.id] = typ
            if value is not None and isinstance(value, ast.Call):
                typ = self.constructed_class(fn, value)
                if typ is not None:
                    for t in targets:
                        if isinstance(t, ast.Name):
                            env.setdefault(t.id, typ)
        self._local_types[fn.qualname] = env
        return env

    def _infer_attr_types(self, cinfo: ClassInfo) -> None:
        """Infer ``self.X`` attribute types from annotations and
        ``__init__``-style constructor assignments."""
        mod = self.modules.get(cinfo.modname)
        if mod is None:
            return
        for stmt in cinfo.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                typ = self.class_of_expr_type(mod, _annotation_names(stmt.annotation))
                if typ is not None:
                    cinfo.attr_types[stmt.target.id] = typ
        for mname in cinfo.methods.values():
            fn = self.functions.get(mname)
            if fn is None:
                continue
            env = self.local_types(fn)
            for node in ast.walk(fn.node):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                    ):
                        typ: str | None = None
                        if isinstance(node, ast.AnnAssign):
                            typ = self.class_of_expr_type(mod, _annotation_names(node.annotation))
                        value = node.value
                        if typ is None and isinstance(value, ast.Name):
                            typ = env.get(value.id)
                        if typ is None and isinstance(value, ast.Call):
                            typ = self.constructed_class(fn, value)
                        if typ is not None:
                            cinfo.attr_types.setdefault(t.attr, typ)

    def type_of_receiver(self, fn: FunctionInfo, recv: ast.expr) -> str | None:
        """Class qualname of a call receiver expression, where decidable."""
        env = self.local_types(fn)
        if isinstance(recv, ast.Name):
            return env.get(recv.id)
        if isinstance(recv, ast.Attribute) and isinstance(recv.value, ast.Name):
            base_t = env.get(recv.value.id)
            if base_t is not None and base_t in self.classes:
                return self.classes[base_t].attr_types.get(recv.attr)
        return None

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_name_in(self, fn: FunctionInfo, name: str) -> Ref:
        """Resolve a bare name in ``fn``'s scope (lazy imports first)."""
        if name in fn.imports:
            return self.resolve_dotted(fn.imports[name])
        return self.resolve_name(self.modules[fn.modname], name)

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> Ref:
        func = call.func
        if isinstance(func, ast.Name):
            return self.resolve_name_in(fn, func.id)
        if isinstance(func, ast.Attribute):
            # Typed receiver: method dispatch by class.
            recv_type = self.type_of_receiver(fn, func.value)
            if recv_type is not None:
                meth = self.lookup_method(recv_type, func.attr)
                if meth is not None:
                    return Ref("function", meth.qualname)
                return Ref("unknown", f"{recv_type}.{func.attr}", attr=func.attr)
            dotted = _dotted_text(func)
            if dotted is not None:
                parts = dotted.split(".")
                head = self.resolve_name_in(fn, parts[0])
                if head.kind in ("module", "external", "class"):
                    return self.resolve_dotted(".".join([head.target] + parts[1:]))
            return Ref("unknown", dotted or f"<expr>.{func.attr}", attr=func.attr)
        return Ref("unknown", "<call>")
