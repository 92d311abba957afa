"""Lint: every library module, function, class and method has a caller outside
``tests/``, and every import is read.

A module under ``src/repro`` whose top-level names (functions, classes,
constants) are used only by tests is code the reproduction never runs.
Each module must define at least one name used by a file under
``src/``, ``examples/``, ``benchmarks/`` or ``scripts/``. A package
``__init__`` re-exporting a name is not a use; a caller importing it
through the package is. Entry points are not checked themselves:
package ``__init__`` modules and ``__main__.py``.

The same holds one level down: every top-level ``def`` and ``class``
under ``src/repro``, private ones included, must be loaded by one of
those files or elsewhere in its own module (outside its own body and
``__all__``). Dunder names (``__getattr__``, ``__dir__``) are called by
the interpreter and are exempt.

Methods and properties are matched by name, as no type information is
at hand: each one defined in a class under ``src/repro`` must be read
as an attribute (``x.name``, or ``getattr(x, "name")``) by one of those
files, or by its own module outside its own body. Dunders are exempt. A
read off a name the file binds to an imported module (``np.exp``,
``F.relu``) is a module attribute, not a method, and does not count.

A module-level import that its module never reads is dead too
(package ``__init__`` re-exports and ``from __future__`` aside).

Last, every option has a caller: each defaulted parameter of a function,
method or class under ``src/repro``, and each defaulted field of a
``*Config`` dataclass, must be set by one of those files. Calls are
matched by callee name (``f(...)``, ``x.f(...)``), except calls that
reach no library object: a builtin the file does not rebind
(``min(a, b)``), and a method of a foreign value (``np.sum(...)``,
``x.data.sum(...)``, or ``y.sum(...)`` where every binding of ``y`` in
its function is foreign or ``y`` is annotated ``np.ndarray``; arithmetic
with a foreign operand counts as foreign). A value is set by a
keyword or positional argument at a call that names its callee, where a
subclass's name counts for an inherited ``__init__`` and its fields, as
do ``cls(...)`` in the class's classmethods and ``super().__init__(...)``
in a subclass, and a call through a plain alias (``trainer = train``)
counts for its target. A ``replace(...)`` keyword sets a config field of
that name. When the callee is called with ``*``/``**`` or is bound as a
value (stored in a table, passed as an argument), a key the program
builds by name also counts: a ``dict(...)`` keyword, a dict-literal key
or an argparse dest. A same-named keyword passed to another callee does
not count. A value no caller sets is a constant; ``KEPT`` names the few
kept settable on purpose, each with its reason.
"""

import ast
import builtins
import importlib.util
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
CALLER_DIRS = ("src", "examples", "benchmarks", "scripts")
ENTRY_POINTS = ("__init__.py", "__main__.py")

# Values no caller outside tests sets that stay settable, one reason each.
KEPT = {
    "DistributedConfig.barrier_timeout": (
        "safety value: the wedge timeout, which the fault tests shorten"
    ),
    "StreamConfig.mutate_graph": (
        "the multi-window check of the stream == offline contract turns it off"
    ),
}


def module_name(path):
    """Dotted name of ``path`` under ``src/`` (packages drop ``__init__``)."""
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def package_of(path):
    """The package a caller file's relative imports resolve against."""
    return module_name(path).rpartition(".")[0] if path.is_relative_to(SRC) else ""


def defined_names(tree):
    """Names bound by the module's top-level statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def used_names(tree, package):
    """``(module, name)`` pairs a file reads from other modules.

    ``package`` is the file's own package, for relative imports. Covers
    ``from m import n`` and attribute reads through an imported module
    (``import m`` / ``from p import m`` then ``m.n``).
    """
    uses, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                uses.add((base, alias.name))
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _dotted(node.value)
            if chain is None:
                continue
            root, _, rest = chain.partition(".")
            if root in aliases:
                owner = aliases[root] + ("." + rest if rest else "")
                uses.add((owner, node.attr))
    return uses


def caller_files():
    for top in CALLER_DIRS:
        for path in sorted((REPO / top).rglob("*.py")):
            if top == "src" and path.name == "__init__.py":
                continue  # a re-export is not a use
            yield path


def local_loads(tree, skip):
    """Names the module's top-level statements load, ``skip`` and ``__all__`` aside."""
    names = set()
    for node in tree.body:
        if node is skip:
            continue
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
    return names


def owners_of(name):
    """``name`` and every enclosing package: the paths a definition is reachable by."""
    return [name.rsplit(".", i)[0] for i in range(name.count(".") + 1)]


def callers_by_name():
    """``(module, name)`` -> the caller files that use it."""
    callers = defaultdict(set)
    for path in caller_files():
        for use in used_names(ast.parse(path.read_text()), package_of(path)):
            callers[use].add(path)
    return callers


def unused_definitions(tree, name, path, callers):
    """Top-level ``def``/``class`` names of ``tree`` (module ``name``) nothing loads."""
    owners = owners_of(name)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        defined = node.name
        if defined.startswith("__") and defined.endswith("__"):
            continue
        if defined in local_loads(tree, node):
            continue
        if any(callers[(owner, defined)] - {path} for owner in owners):
            continue
        unused.append(defined)
    return unused


def definitions_without_callers():
    callers = callers_by_name()
    orphans = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = path.relative_to(REPO).as_posix()
        for defined in unused_definitions(tree, module_name(path), path, callers):
            orphans.append(f"{rel}::{defined}")
    return orphans


def modules_without_callers():
    callers = callers_by_name()
    orphans = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name in ENTRY_POINTS:
            continue
        tree = ast.parse(path.read_text())
        # A name is reachable through its module or any enclosing package.
        owners = owners_of(module_name(path))
        if not any(
            callers[(owner, defined)] - {path}
            for owner in owners
            for defined in defined_names(tree)
        ):
            orphans.append(path.relative_to(REPO).as_posix())
    return orphans


def _is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):  # ``name``'s parent is not a package
        return False


def module_aliases(tree, package=""):
    """Names ``tree`` binds to imported modules (``np``, ``F``, ``math``, ...).

    ``import m`` and ``import m as a`` always bind a module; ``from p import
    n`` does when ``p.n`` is one. ``package`` resolves relative imports.
    """
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            aliases.update(
                a.asname or a.name for a in node.names if _is_module(f"{base}.{a.name}")
            )
    return aliases


def attribute_reads(tree, skip=None, package=""):
    """Attribute names ``tree`` reads, outside the subtree ``skip``.

    ``x.name`` in load context, and ``getattr``/``hasattr`` with a literal
    name; a read off an imported module (``np.exp``) is not counted.
    """
    modules = module_aliases(tree, package)
    reads, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            reads.add(node.args[1].value)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def unused_methods(tree, read_elsewhere, package=""):
    """``Class.method`` names of ``tree`` that neither ``read_elsewhere`` nor
    the module itself (outside the method's body) reads as an attribute."""
    unused = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in read_elsewhere or name in attribute_reads(tree, node, package):
                continue
            unused.append(f"{cls.name}.{name}")
    return unused


def methods_without_callers():
    reads = {
        path: attribute_reads(ast.parse(path.read_text()), package=package_of(path))
        for path in caller_files()
    }
    orphans = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        elsewhere = set().union(*(r for p, r in reads.items() if p != path))
        rel = path.relative_to(REPO).as_posix()
        tree = ast.parse(path.read_text())
        for method in unused_methods(tree, elsewhere, package_of(path)):
            orphans.append(f"{rel}::{method}")
    return orphans


def _annotations(tree):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        if annotation is not None:
            yield annotation


def _annotation_names(tree):
    """Names inside string annotations (``x: "Foo"``)."""
    names = set()
    for annotation in _annotations(tree):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    expr = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unread_imports(tree):
    """Names bound by module-level imports that the module never reads.

    Imports nested in a top-level ``if``/``try`` (``TYPE_CHECKING``
    blocks, optional dependencies) count as module level; a name listed
    in ``__all__`` counts as read.
    """
    bound = []

    def collect(body):
        for node in body:
            if isinstance(node, ast.Import):
                bound.extend(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.extend(a.asname or a.name for a in node.names)
            elif isinstance(node, (ast.If, ast.Try)):
                collect(node.body)
                collect(node.orelse)
                for handler in getattr(node, "handlers", []):
                    collect(handler.body)

    collect(tree.body)
    reads = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    reads |= _annotation_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            reads |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in bound if name not in reads]


def imports_never_read():
    unread = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(REPO).as_posix()
        unread.extend(f"{rel}::{name}" for name in unread_imports(ast.parse(path.read_text())))
    return unread


def _callee(func):
    """The name a call is matched by: ``f`` for ``f(...)`` and ``x.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _decorators(node):
    return {_callee(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def declared_options(tree):
    """``(label, owner, function, param, position)`` per option ``tree`` declares.

    ``owner`` is the class of an ``__init__`` parameter or ``*Config``
    field (``function`` is ``None`` for a field); ``position`` is the
    index a positional argument at a call fills, ``None`` for keyword-only
    parameters and fields. Dunders other than ``__init__`` are called by
    the interpreter and are skipped.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if "dataclass" in _decorators(child) and child.name.endswith("Config"):
                    for stmt in child.body:
                        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                            field = stmt.target.id
                            found.append((f"{child.name}.{field}", child.name, None, field, None))
                visit(child, child)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")) or name == "__init__":
                    bound = cls is not None and "staticmethod" not in _decorators(child)
                    owner = cls.name if cls is not None else None
                    if name == "__init__":
                        label = owner
                    else:
                        label = f"{owner}.{name}" if owner else name
                    args = child.args
                    positional = args.posonlyargs + args.args
                    first = len(positional) - len(args.defaults)
                    for i, arg in enumerate(positional[first:], start=first):
                        found.append((f"{label}({arg.arg}=)", owner, name, arg.arg, i - bound))
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            found.append((f"{label}({arg.arg}=)", owner, name, arg.arg, None))
                visit(child, None)
                continue
            visit(child, cls)

    visit(tree, None)
    return found


def _dict_keys(node):
    """The keys of a dict literal or ``dict(...)`` call, else ``None``."""
    if isinstance(node, ast.Dict) and None not in node.keys:
        return [k.value for k in node.keys if isinstance(k, ast.Constant)]
    if isinstance(node, ast.Call) and _callee(node.func) == "dict" and not node.args:
        if all(k.arg is not None for k in node.keywords):
            return [k.arg for k in node.keywords]
    return None


#: the callee of a call to a name the library does not define: an object
#: whose ``__call__`` forwards to a method (``conv(x, plans=p)``)
OBJECT_CALL = "()"
#: attributes of a library object that hold NumPy arrays (``Tensor.data``)
ARRAY_ATTRIBUTES = ("data", "grad")


def foreign_modules(tree):
    """Names ``tree`` binds to modules outside the library (``np``, ``math``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(
                a.asname or a.name.split(".")[0]
                for a in node.names
                if a.name.split(".")[0] != "repro"
            )
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] != "repro":
                names.update(
                    a.asname or a.name
                    for a in node.names
                    if _is_module(f"{node.module}.{a.name}")
                )
    return names


def _foreign(node, names):
    """Whether expression ``node`` surely holds no library object: a value
    of a foreign module (``np.zeros(n)``, ``x.data.sum()``), or one built
    from such values, or a name in ``names`` (see :func:`foreign_names`)."""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in ARRAY_ATTRIBUTES or _foreign(node.value, names)
    if isinstance(node, ast.Call):
        return _foreign(node.func, names)
    if isinstance(node, ast.Subscript):
        return _foreign(node.value, names)
    if isinstance(node, ast.UnaryOp):
        return _foreign(node.operand, names)
    if isinstance(node, ast.Compare):
        return _foreign(node.left, names)
    if isinstance(node, ast.BinOp):
        return _foreign(node.left, names) or _foreign(node.right, names)
    return False


def foreign_names(nodes, modules):
    """The names that every binding among ``nodes`` (one scope) gives a
    foreign value, ``modules`` (see :func:`foreign_modules`) included.

    ``x = np.zeros(n)``, ``x += 1`` and ``def f(x: np.ndarray)`` keep
    ``x`` foreign; any other parameter, a loop variable or a tuple target
    is unknown, so it may be a library object.
    """
    values, simple, unknown = defaultdict(list), set(), set()
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value:
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if not isinstance(target, ast.Name):
                    continue
                simple.add(id(target))
                value = node.value
                if isinstance(node, ast.AugAssign):
                    value = ast.BinOp(ast.Name(target.id, ast.Load()), node.op, value)
                values[target.id].append(value)
        elif isinstance(node, ast.arg):  # foreign only if annotated so
            if node.annotation is not None and _foreign(node.annotation, modules):
                values.setdefault(node.arg, [])
            else:
                unknown.add(node.arg)
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            if id(node) not in simple:
                unknown.add(node.id)
    names = set(modules) | (set(values) - unknown)
    while True:  # drop a name one of whose values is not foreign, until stable
        kept = {n for n in names if n in modules or all(_foreign(v, names) for v in values[n])}
        if kept == names:
            return names
        names = kept


def bound_names(tree):
    """Every name ``tree`` binds: targets, imports, defs, classes, parameters."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def scopes(tree):
    """``(nodes, names)`` per scope of ``tree``: the module's own statements,
    then each function or lambda not nested in another, nested ones inside;
    ``names`` are the scope's :func:`foreign_names`."""
    modules = foreign_modules(tree)
    top, functions, stack = [], [], [tree]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                functions.append(list(ast.walk(child)))
            else:
                top.append(child)
                stack.append(child)
    return [(nodes, foreign_names(nodes, modules)) for nodes in [top] + functions]


class OptionSetters:
    """What a set of caller files passes, by callee name (see the module doc)."""

    def __init__(self):
        self.keywords = set()  # (callee, keyword)
        self.positions = defaultdict(int)  # callee -> most positional arguments
        self.dynamic = set()  # callees called with */** or bound as a value
        self.built_keys = set()  # dict(...) keywords, dict-literal keys, argparse dests
        self.replaced = set()  # replace(...) keywords

    def scan(self, tree, functions, methods, package=""):
        """Record ``tree``'s calls; ``functions``/``methods`` are the library's names."""
        modules = module_aliases(tree, package)
        # A type named in an annotation is not a value.
        annotations = {id(sub) for a in _annotations(tree) for sub in ast.walk(a)}
        targets = {}  # call node -> callee names it stands for
        aliases = defaultdict(set)
        built = {}  # name -> keys of the dict literal or dict(...) bound to it
        skip = set()  # Name/Attribute nodes that are not bound as values
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                skip.update(id(b) for b in node.bases)
                skip.update(id(d) for d in node.decorator_list)
                bases = {_callee(b) for b in node.bases} - {None}
                for stmt in node.body:
                    is_classmethod = isinstance(stmt, ast.FunctionDef) and (
                        "classmethod" in _decorators(stmt)
                    )
                    for sub in ast.walk(stmt):
                        if not isinstance(sub, ast.Call):
                            continue
                        if is_classmethod and _callee(sub.func) == "cls":
                            targets[sub] = {node.name}
                        elif (
                            _callee(sub.func) == "__init__"
                            and isinstance(sub.func.value, ast.Call)
                            and _callee(sub.func.value.func) == "super"
                        ):
                            targets[sub] = bases
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                skip.update(id(d) for d in node.decorator_list)
            elif isinstance(node, ast.Assign):
                pairs = [(t, node.value) for t in node.targets]
                for target, value in pairs:
                    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                        pairs.extend(zip(target.elts, value.elts))
                    elif isinstance(target, ast.Name) and isinstance(value, ast.Name):
                        aliases[target.id].add(value.id)
                    elif isinstance(target, ast.Name) and _dict_keys(value) is not None:
                        built[target.id] = _dict_keys(value)
            elif isinstance(node, ast.Call):
                skip.add(id(node.func))
                if _callee(node.func) in ("isinstance", "issubclass"):
                    skip.update(id(a) for a in node.args)
            elif isinstance(node, ast.Attribute):
                skip.add(id(node.value))
        # A builtin the file does not rebind (``min(a, b)``) is not the library's.
        builtin = set(dir(builtins)) - bound_names(tree)
        for nodes, names in scopes(tree):
            for node in nodes:
                if isinstance(node, ast.Call):
                    func = node.func
                    foreign = (
                        _foreign(func.value, names)
                        if isinstance(func, ast.Attribute)
                        else isinstance(func, ast.Name) and func.id in builtin
                    )
                    self._record_call(
                        node, targets, aliases, built, functions, methods, foreign
                    )
                elif isinstance(node, ast.Dict):
                    self.built_keys.update(
                        k.value for k in node.keys if isinstance(k, ast.Constant)
                    )
                elif id(node) in skip or id(node) in annotations:
                    continue
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in functions:
                        self.dynamic.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    off_module = isinstance(node.value, ast.Name) and node.value.id in modules
                    if node.attr in methods and not off_module:
                        self.dynamic.add(node.attr)

    def _record_call(self, node, targets, aliases, built, functions, methods, foreign):
        """Record call ``node``; a ``foreign`` one (a NumPy method, an
        unshadowed builtin) reaches no library callee."""
        name = _callee(node.func)
        if name is None:
            return
        callees = targets.get(node, {name}) | aliases.get(name, set())
        if name not in functions and name not in methods:
            callees.add(OBJECT_CALL)  # a callable object: reaches its __call__
        if foreign and node not in targets:
            callees = set()
        keywords, starred = [], any(isinstance(a, ast.Starred) for a in node.args)
        for k in node.keywords:
            if k.arg is not None:
                keywords.append(k.arg)
                continue
            keys = _dict_keys(k.value)
            if keys is None and isinstance(k.value, ast.Name):
                keys = built.get(k.value.id)
            if keys is None:
                starred = True
            else:
                keywords.extend(keys)
        if name == "dict":
            self.built_keys.update(keywords)
        elif name == "replace":
            self.replaced.update(keywords)
        elif name == "add_argument":
            flags = [a.value for a in node.args if isinstance(a, ast.Constant)]
            dest = [
                k.value.value
                for k in node.keywords
                if k.arg == "dest" and isinstance(k.value, ast.Constant)
            ]
            longs = [f[2:].replace("-", "_") for f in flags if f.startswith("--")]
            self.built_keys.update(dest or longs[:1] or flags[:1])
        for callee in callees:
            self.keywords.update((callee, k) for k in keywords)
            self.positions[callee] = max(self.positions[callee], len(node.args))
            if starred:
                self.dynamic.add(callee)

    def sets(self, callees, param, position, field):
        """Whether some call to one of ``callees`` sets option ``param``."""
        if any((callee, param) in self.keywords for callee in callees):
            return True
        if position is not None and any(self.positions[c] > position for c in callees):
            return True
        if field and param in self.replaced:
            return True
        return bool(callees & self.dynamic) and param in self.built_keys


def library_names(trees):
    """What the library defines, matched by name: function and class names,
    method names, the methods a ``__call__`` forwards its arguments to, and
    a function giving each class's subclasses (itself included)."""
    functions, methods, forwarded = set(), set(), set()
    children = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                functions.add(node.name)
                for base in node.bases:
                    children[_callee(base)].add(node.name)
                methods.update(
                    s.name for s in node.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.add(node.name)
                if node.name == "__call__":
                    forwarded.update(
                        _callee(sub.func) for sub in ast.walk(node)
                        if isinstance(sub, ast.Call) and any(k.arg is None for k in sub.keywords)
                    )
    functions -= methods

    def family(cls):
        seen, stack = {cls}, [cls]
        while stack:
            for child in children[stack.pop()] - seen:
                seen.add(child)
                stack.append(child)
        return seen

    return functions, methods, forwarded, family


def unset_options(sources, callers):
    """Labels of the options in ``sources`` (``{path: tree}``) that no caller
    sets; ``callers`` holds each caller file's ``(tree, package)``."""
    functions, methods, forwarded, family = library_names(sources.values())
    setters = OptionSetters()
    for tree, package in callers:
        setters.scan(tree, functions, methods, package)
    unset = []
    for path, tree in sources.items():
        for label, owner, function, param, position in declared_options(tree):
            field = function is None
            callees = family(owner) if field or function == "__init__" else {function}
            if function in forwarded:
                callees = callees | {OBJECT_CALL}
            if not setters.sets(callees, param, position, field):
                unset.append(f"{path}::{label}")
    return unset


def options_without_callers(root=REPO):
    sources = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for path in sorted((root / "src" / "repro").rglob("*.py"))
    }
    callers = [
        (ast.parse(path.read_text()), package_of(path))
        for top in CALLER_DIRS
        for path in sorted((root / top).rglob("*.py"))
    ]
    return [
        label for label in unset_options(sources, callers)
        if label.partition("::")[2] not in KEPT
    ]


def test_every_module_has_a_caller_outside_tests():
    orphans = modules_without_callers()
    assert orphans == [], (
        "modules only tests use (delete them, or call them from the library):\n"
        + "\n".join(orphans)
    )


def test_every_function_and_class_has_a_caller_outside_tests():
    orphans = definitions_without_callers()
    assert orphans == [], (
        "functions and classes only tests use (delete them, or move them "
        "into tests/ if a test needs them as a reference):\n" + "\n".join(orphans)
    )


def test_unused_definitions_names_orphans_and_spares_used_names():
    module = "\n".join(
        [
            '__all__ = ["orphan", "used_here", "used_elsewhere"]',
            "def orphan():",
            "    return orphan()  # a call inside its own body is not a use",
            "def _helper():",
            "    return 1",
            "def used_here():",
            "    return _helper()",
            "class used_elsewhere:",
            "    pass",
            "def __getattr__(name):",
            "    raise AttributeError(name)",
            "TABLE = {'here': used_here}",
        ]
    )
    caller = "from repro.pkg import used_elsewhere"
    callers = defaultdict(set)
    for use in used_names(ast.parse(caller), ""):
        callers[use].add(Path("caller.py"))
    path = Path("mod.py")
    unused = unused_definitions(ast.parse(module), "repro.pkg.mod", path, callers)
    assert unused == ["orphan"]


def test_used_names_resolves_the_import_forms():
    source = "\n".join(
        [
            "from repro.nn.optim import Adam",
            "from repro.nn import functional as F",
            "import repro.graph.bulk",
            "from . import sibling",
            "F.relu(x)",
            "repro.graph.bulk.multi_source_bfs(g)",
            "sibling.helper()",
        ]
    )
    uses = used_names(ast.parse(source), "repro.data")
    assert {
        ("repro.nn.optim", "Adam"),
        ("repro.nn.functional", "relu"),
        ("repro.graph.bulk", "multi_source_bfs"),
        ("repro.data.sibling", "helper"),
    } <= uses


def test_every_method_has_a_caller_outside_tests():
    orphans = methods_without_callers()
    assert orphans == [], (
        "methods and properties only tests read (delete them; a test that "
        "needs one keeps an inline helper):\n" + "\n".join(orphans)
    )


def test_unused_methods_names_orphans_and_spares_used_names():
    module = "\n".join(
        [
            "class Store:",
            "    def orphan(self):",
            "        return self.orphan()  # a read inside its own body is not a use",
            "    def used_here(self):",
            "        return 1",
            "    def total(self):",
            "        return self.used_here()",
            "    def looked_up(self):",
            "        return 2",
            "    @property",
            "    def size(self):",
            "        return 3",
            "    def __len__(self):",
            "        return 0",
        ]
    )
    caller = "\n".join(
        ["s = Store()", "s.total()", "print(s.size)", 'getattr(s, "looked_up")()']
    )
    unused = unused_methods(ast.parse(module), attribute_reads(ast.parse(caller)))
    assert unused == ["Store.orphan"]


def test_reads_off_an_imported_module_are_not_method_uses():
    module = "\n".join(
        [
            "class Tensor:",
            "    def exp(self):",
            "        return 1",
            "    def relu(self):",
            "        return 2",
        ]
    )
    caller = "\n".join(
        [
            "import numpy as np",
            "from repro.nn import functional as F",
            "from repro.nn.tensor import Tensor",
            "np.exp(0.0)",
            "F.relu(x)",
            "np.linalg.norm(x).relu()  # a read off a call result counts",
        ]
    )
    reads = attribute_reads(ast.parse(caller))
    assert {"exp", "linalg", "Tensor"}.isdisjoint(reads)
    assert {"norm", "relu"} <= reads
    assert unused_methods(ast.parse(module), reads) == ["Tensor.exp"]


def test_every_import_is_read():
    unread = imports_never_read()
    assert unread == [], "imports their module never reads:\n" + "\n".join(unread)


def test_unread_imports_names_dead_imports_and_spares_read_ones():
    module = "\n".join(
        [
            "from __future__ import annotations",
            "import os",
            "import numpy as np",
            "import repro.graph.bulk",
            "from typing import TYPE_CHECKING, Optional, Tuple",
            "from repro.store import save_task",
            "if TYPE_CHECKING:",
            "    from repro.data.store import SubgraphStore",
            '__all__ = ["save_task"]',
            'def f(x: Optional[int], s: "SubgraphStore") -> int:',
            "    return np.abs(x) + repro.graph.bulk.K",
        ]
    )
    assert unread_imports(ast.parse(module)) == ["os", "Tuple"]


def test_every_option_has_a_caller_outside_tests():
    unset = options_without_callers()
    assert unset == [], (
        "options no caller outside tests sets (make each a module constant "
        "with its default, and delete the branches behind other values):\n"
        + "\n".join(unset)
    )


def test_kept_options_exist_and_give_reasons():
    labels = {
        label
        for path in (SRC / "repro").rglob("*.py")
        for label, *_ in declared_options(ast.parse(path.read_text()))
    }
    assert set(KEPT) <= labels
    assert all(reason.strip() for reason in KEPT.values())


def test_unset_options_names_unset_values_and_spares_set_ones(tmp_path):
    files = {
        "src/repro/lib.py": [
            "from dataclasses import dataclass",
            "def fit(x, lr=0.1, steps=5, verbose=False):",
            "    return x",
            "def katz(graph, beta=0.05, limit=3):",
            "    return graph",
            "SCORERS = {'katz': katz}",
            "class Adam:",
            "    def __init__(self, params, weight_decay=0.0):",
            "        self.params = params",
            "class Layer:",
            "    def __call__(self, *args, **kwargs):",
            "        return self.forward(*args, **kwargs)",
            "class Conv(Layer):",
            "    def __init__(self, width, bias=True):",
            "        self.width = width",
            "    def forward(self, x, plans=None):",
            "        return x",
            "class WideConv(Conv):",
            "    pass",
            "@dataclass",
            "class RunConfig:",
            "    epochs: int = 10",
            "    batch_size: int = 32",
            "    weight_decay: float = 0.0",
            "    seed: int = 0",
            "    tag: str = ''",
            "    @classmethod",
            "    def quick(cls):",
            "        return cls(tag='quick')",
            "class Tensor:",
            "    def sum(self, axis=None, keepdims=False):",
            "        return self",
            "    def min(self, axis=None):",
            "        return self",
        ],
        "scripts/run.py": [
            "import argparse",
            "from dataclasses import replace",
            "from repro.lib import SCORERS, Adam, RunConfig, WideConv, fit",
            "parser = argparse.ArgumentParser()",
            "parser.add_argument('--batch-size', type=int)",
            "args = parser.parse_args()",
            "config = RunConfig(**vars(args))",
            "config = replace(config, seed=1)",
            "fit(1, 0.5)",
            "trainer = fit",
            "trainer(2, verbose=True)",
            "Adam([], weight_decay=1e-4)",
            "conv = WideConv(4, bias=False)",
            "conv(1, plans=None)",
            "SCORERS['katz'](None, **{'beta': 0.1})",
            "import numpy as np",
            "arr = np.ones(3)",
            "arr.sum(keepdims=True)",
            "conv.data.sum(0, keepdims=True)",
            "min(1, 2)",
            "def total(x, g: np.ndarray):",
            "    return x.sum(axis=0), (g * 2).sum(keepdims=True)",
        ],
        "examples/demo.py": [
            "from repro.lib import RunConfig",
            "common = dict(epochs=3)",
            "RunConfig(**common)",
        ],
        "tests/test_lib.py": [
            "from repro.lib import RunConfig, fit, katz",
            "fit(1, steps=2)",
            "katz(None, limit=1)",
            "RunConfig(weight_decay=0.1)",
        ],
    }
    for rel, lines in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("\n".join(lines) + "\n")
    # ``steps`` and ``limit`` are set only in tests/; ``weight_decay`` there
    # and at Adam, a different callee. Everything else is set by position
    # (lr), through an alias (verbose), a subclass (bias), a callable
    # object (plans), an argparse dest (batch_size), replace() (seed), a
    # resolved dict(...) (epochs), cls() (tag) or a table's dict key (beta).
    # NumPy calls (off a name bound from np.*, a ``.data`` array, an
    # ndarray-annotated parameter) and the builtin ``min`` reach no library
    # method: only the call on the unknown ``x`` sets ``Tensor.sum(axis=)``.
    assert options_without_callers(tmp_path) == [
        "src/repro/lib.py::fit(steps=)",
        "src/repro/lib.py::katz(limit=)",
        "src/repro/lib.py::RunConfig.weight_decay",
        "src/repro/lib.py::Tensor.sum(keepdims=)",
        "src/repro/lib.py::Tensor.min(axis=)",
    ]
