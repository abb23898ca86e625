"""Who uses what in ``src/``: the censuses behind ROADMAP item 9.

A *program user* is a file under ``src/``, ``benchmarks/``, ``examples/``
or ``tools/`` (test files and ``conftest.py`` excepted), a code block in
README.md, or a docstring example in ``src/`` (a ``>>>`` line, or the
literal block after a line ending in ``::``).  Tests do not count.

* :func:`unused_definitions` lists every module-level function, class and
  upper-case constant, and every method, that no program user names
  outside the definition itself.  A module-level name is used by a name,
  an attribute, an import outside a package ``__init__.py``, or a word
  of a string or a docstring example.  A method is used by an attribute
  of its name, a word of a string or a docstring example, or a bare name
  in its own class body (a handler table).  A module-level function
  decorated with a call of a function of its own module is used by that
  decorator, which registers it (``scope/cli.py``'s ``@command(...)``).
* :func:`unimported_reexports` lists every name of a package's
  ``__all__`` that no program user imports through that package.
* :func:`unset_values` lists every defaulted parameter and dataclass
  field that no program call sets by keyword or by position, matching
  calls by the callee's last name (so it errs towards "set").  A call
  of a class that inherits its ``__init__`` counts for the class that
  defines it, and so does ``super().__init__(...)``; the clock's
  ``call_at(when, fn, *args)`` and ``call_later(delay, fn, *args)``
  count as calls of ``fn`` with ``args``.  A field the program fills is
  state, not an option, and counts as set: one assigned as an attribute
  (``report.ping = ...``; a store on ``self`` sets a field of its own
  class or of a class it inherits from, no other), filled through
  ``.append``-style methods, item assignment or an attribute of its own
  (``report.errors.append``, ``taxonomy.by_class[key] = ...``), named
  by ``setattr`` (a literal name, or an f-string's literal prefix:
  ``setattr(r, f"peak_{k}", ...)`` covers every ``peak_*`` field), or
  handed to a function that fills that parameter in place
  (``probe_push(link, report.push)``), or named by a literal handed to a
  function that sets the field its parameter names through ``setattr``
  (``report.fresh("ping")``); a local name bound to the field,
  or to the name, in the same function (``samples = stats.with_push if
  push else stats.without_push``) stands for it.  So does every field
  of a class whose body calls ``replace(self, **...)``.
  Positions count a dataclass's own fields only, so a subclass's field
  set by position reads as unset.

Run ``python -m tests.support.census`` from the repository root to print
all three.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PROGRAM_DIRS = ("src", "benchmarks", "examples", "tools")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
UPPER = re.compile(r"_*[A-Z][A-Z0-9_]*")


@dataclass(frozen=True)
class Definition:
    path: str
    qualname: str
    start: int
    end: int

    @property
    def lines(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class _Use:
    path: str
    line: int
    # The class body a bare name sits in, as "path:start-end", or "".
    scope: str = ""


def program_files(root: Path = ROOT) -> list[Path]:
    files = []
    for top in PROGRAM_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            files.append(path)
    return files


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _docstring_examples(text: str) -> list[str]:
    """The ``>>>`` lines and ``::`` literal blocks of one docstring."""
    lines, out, block_indent = text.splitlines(), [], None
    for line in lines:
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if block_indent is not None:
            if not stripped or indent > block_indent:
                out.append(line)
                continue
            block_indent = None
        if stripped.startswith(">>>") or stripped.startswith("..."):
            out.append(stripped[3:])
        elif stripped.endswith("::"):
            block_indent = indent
    return out


def _docstring_nodes(tree: ast.Module) -> set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                ids.add(id(body[0].value))
    return ids


def _readme_code(root: Path) -> str:
    text = (root / "README.md").read_text()
    return "\n".join(re.findall(r"```[^\n]*\n(.*?)```", text, flags=re.S))


class _Index:
    """Every use of every word in the program, by kind."""

    def __init__(self, root: Path):
        self.names: dict[str, list[_Use]] = {}
        self.attrs: dict[str, list[_Use]] = {}
        self.imports: dict[str, list[_Use]] = {}
        self.words: dict[str, list[_Use]] = {}
        # (package, name) of every ``from package import name`` and
        # every ``package.name`` attribute on an imported package.
        self.through: set[tuple[str, str]] = set()
        for path in program_files(root):
            self._add_file(root, path)
        for word in WORD.findall(_readme_code(root)):
            self.words.setdefault(word, []).append(_Use("README.md", 0))
        self._add_example_imports(_readme_code(root))

    def _add_file(self, root: Path, path: Path) -> None:
        rel = str(path.relative_to(root))
        tree = _tree(path)
        docstrings = _docstring_nodes(tree)
        is_init = path.name == "__init__.py"
        aliases: dict[str, str] = {}  # local name -> imported module
        class_spans = [
            (node.lineno, node.end_lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        ]

        def scope_of(line: int) -> str:
            inner = [s for s in class_spans if s[0] <= line <= s[1]]
            if not inner:
                return ""
            start, end = max(inner)
            return f"{rel}:{start}-{end}"

        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                self.names.setdefault(node.id, []).append(
                    _Use(rel, node.lineno, scope_of(node.lineno))
                )
            elif isinstance(node, ast.Attribute):
                self.attrs.setdefault(node.attr, []).append(_Use(rel, node.lineno))
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    self.through.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if not is_init:
                        self.imports.setdefault(alias.name, []).append(
                            _Use(rel, node.lineno)
                        )
                        self.through.add((node.module, alias.name))
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
                if id(node) in docstrings:
                    text = "\n".join(_docstring_examples(text))
                    self._add_example_imports(text)
                for word in WORD.findall(text):
                    self.words.setdefault(word, []).append(_Use(rel, node.lineno))

    def _add_example_imports(self, code: str) -> None:
        for match in re.finditer(r"from\s+([\w.]+)\s+import\s+([\w, ]+)", code):
            for name in match.group(2).split(","):
                if name.strip():
                    self.through.add((match.group(1), name.strip()))


@cache
def _index(root: Path = ROOT) -> _Index:
    return _Index(root)


def _module_name(root: Path, path: Path) -> str:
    parts = list(path.relative_to(root / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def definitions(root: Path = ROOT) -> list[Definition]:
    """Module-level functions, classes and upper-case constants, and
    methods, of every ``src/`` module; dunders skipped."""
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = str(path.relative_to(root))
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append(Definition(rel, node.name, node.lineno, node.end_lineno))
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ) and not item.name.startswith("__"):
                            found.append(
                                Definition(
                                    rel,
                                    f"{node.name}.{item.name}",
                                    item.lineno,
                                    item.end_lineno,
                                )
                            )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and UPPER.fullmatch(target.id)
                        and not target.id.startswith("__")
                    ):
                        found.append(
                            Definition(rel, target.id, node.lineno, node.end_lineno)
                        )
    return found


def _outside(uses: list[_Use], d: Definition) -> bool:
    return any(
        use.path != d.path or not d.start <= use.line <= d.end for use in uses
    )


def _class_span(root: Path, d: Definition) -> str:
    owner = d.qualname.split(".")[0]
    for node in _tree(root / d.path).body:
        if isinstance(node, ast.ClassDef) and node.name == owner:
            return f"{d.path}:{node.lineno}-{node.end_lineno}"
    return ""


def _registered(root: Path, d: Definition) -> bool:
    body = _tree(root / d.path).body
    own = {node.name for node in body if isinstance(node, ast.FunctionDef)}
    return any(
        isinstance(node, ast.FunctionDef)
        and node.name == d.qualname
        and any(
            isinstance(deco, ast.Call)
            and isinstance(deco.func, ast.Name)
            and deco.func.id in own
            for deco in node.decorator_list
        )
        for node in body
    )


def is_used(d: Definition, root: Path = ROOT) -> bool:
    index = _index(root)
    name = d.qualname.split(".")[-1]
    if _outside(index.attrs.get(name, []), d) or _outside(
        index.words.get(name, []), d
    ):
        return True
    if "." in d.qualname:
        span = _class_span(root, d)
        return _outside(
            [use for use in index.names.get(name, []) if use.scope == span], d
        )
    return (
        _outside(index.names.get(name, []), d)
        or _outside(index.imports.get(name, []), d)
        or _registered(root, d)
    )


def unused_definitions(root: Path = ROOT) -> list[Definition]:
    return [d for d in definitions(root) if not is_used(d, root)]


def reexports(root: Path = ROOT) -> list[tuple[str, str]]:
    """``(package, name)`` for every name of every package ``__all__``."""
    found = []
    for path in sorted((root / "src").rglob("__init__.py")):
        package = _module_name(root, path)
        for node in _tree(path).body:
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            ):
                found.extend((package, name) for name in ast.literal_eval(node.value))
    return found


def unimported_reexports(root: Path = ROOT) -> list[tuple[str, str]]:
    through = _index(root).through
    return [entry for entry in reexports(root) if entry not in through]


def init_imports_outside_all(root: Path = ROOT) -> list[tuple[str, str]]:
    """``(package, name)`` a package ``__init__.py`` imports from a
    ``repro`` module but neither lists in ``__all__`` nor reads itself."""
    listed = set(reexports(root))
    found = []
    for path in sorted((root / "src").rglob("__init__.py")):
        package = _module_name(root, path)
        tree = _tree(path)
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "repro"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if (package, name) not in listed and name not in read:
                        found.append((package, name))
    return found


# -- settable values -----------------------------------------------------------


@dataclass(frozen=True)
class Settable:
    path: str
    owner: str  # function, "Class.method" or dataclass name
    name: str
    position: int | None  # index among positional parameters, None = keyword-only
    field: bool = False  # a dataclass field: state the program may assign later


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def _function_settables(rel: str, owner: str, fn, method: bool) -> list[Settable]:
    args = fn.args
    positional = args.posonlyargs + args.args
    offset = 1 if method and positional and positional[0].arg in ("self", "cls") else 0
    found = []
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            found.append(Settable(rel, owner, arg.arg, index - offset))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            found.append(Settable(rel, owner, arg.arg, None))
    return found


def settables(root: Path = ROOT) -> list[Settable]:
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = str(path.relative_to(root))
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += _function_settables(rel, node.name, node, method=False)
            elif isinstance(node, ast.ClassDef):
                fields = []
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        owner = (
                            node.name
                            if item.name == "__init__"
                            else f"{node.name}.{item.name}"
                        )
                        found += _function_settables(rel, owner, item, method=True)
                    elif (
                        _is_dataclass(node)
                        and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.unparse(item.annotation)
                    ):
                        fields.append(item)
                # Positional indices count every field, defaulted or not.
                for index, item in enumerate(fields):
                    if item.value is not None and not _is_init_false(item.value):
                        found.append(
                            Settable(rel, node.name, item.target.id, index, True)
                        )
    return found


def _is_init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


#: Methods that fill the object they are called on.
_FILLERS = frozenset({"append", "extend", "insert", "add", "update", "setdefault"})
#: The clock's schedulers: ``call_at(when, fn, *args)`` calls ``fn(*args)``.
_SCHEDULERS = frozenset({"call_at", "call_later"})


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _filled(node: ast.AST) -> list[ast.expr]:
    """The expressions ``node`` fills in place: a store target's inner
    values, the object a filler method is called on, ``setattr``'s first
    argument."""
    if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
        node.ctx, ast.Store
    ):
        return [node.value]
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _FILLERS:
            return [func.value]
        if isinstance(func, ast.Name) and func.id == "setattr" and node.args:
            return [node.args[0]]
    return []


def _chain(node: ast.expr) -> list[ast.expr]:
    """``node`` and every value under it: ``a.b[k].c`` -> itself, ``a.b[k]``,
    ``a.b``, ``a``."""
    out = [node]
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
        out.append(node)
    return out


class _CallIndex(ast.NodeVisitor):
    """Every program call, by the callee's last name; every field the
    program fills, under ``"." + name`` (``"." + prefix + "*"`` for a
    ``setattr`` f-string).  Inside a class body a call to ``cls(...)``,
    ``super().__init__(...)`` and a ``replace(self, **...)`` count as
    calls to that class (``super()``: to its first base)."""

    def __init__(self):
        self.calls: dict[str, list[ast.AST]] = {}
        self._classes: list[ast.ClassDef] = []
        #: Per enclosing function: local name -> the values bound to it.
        self._aliases: list[dict[str, list[ast.expr]]] = []
        #: Function name -> the positions and names of parameters it fills.
        self.fills: dict[str, set[int | str]] = {}
        #: Function name -> the positions and names of parameters that
        #: name the field it sets through ``setattr``.
        self.names: dict[str, set[int | str]] = {}
        #: Class name -> the last names of its bases.
        self.bases: dict[str, list[str]] = {}

    def _state(self, name: str, node: ast.AST) -> None:
        self.calls.setdefault("." + name, []).append(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bases[node.name] = [ast.unparse(b).split(".")[-1] for b in node.bases]
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        params = node.args.posonlyargs + node.args.args
        if self._classes and params and params[0].arg in ("self", "cls"):
            params = params[1:]
        names = {arg.arg for arg in params + node.args.kwonlyargs}
        filled = {
            inner.id
            for sub in ast.walk(node)
            for target in _filled(sub)
            for inner in _chain(target)
            if isinstance(inner, ast.Name) and inner.id in names
        }
        if filled:
            self.fills.setdefault(node.name, set()).update(
                {i for i, arg in enumerate(params) if arg.arg in filled} | filled
            )
        named = {
            sub.args[1].id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and _callee(sub) == "setattr"
            and len(sub.args) > 1
            and isinstance(sub.args[1], ast.Name)
            and sub.args[1].id in names
        }
        if named:
            self.names.setdefault(node.name, set()).update(
                {i for i, arg in enumerate(params) if arg.arg in named} | named
            )
        aliases: dict[str, list[ast.expr]] = {}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        aliases.setdefault(target.id, []).append(sub.value)
        self._aliases.append(aliases)
        self.generic_visit(node)
        self._aliases.pop()

    def _bound(self, node: ast.expr) -> list[ast.expr]:
        """``node``, or what a local name stands for: the values bound
        to it in the enclosing function, both branches of a conditional."""
        values = [node]
        if isinstance(node, ast.Name) and self._aliases:
            values = self._aliases[-1].get(node.id, values)
        out = []
        for value in values:
            out += [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
        return out

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Store):
            target = node.value
            if self._classes and isinstance(target, ast.Name) and target.id == "self":
                # A field of this class or of one it inherits (see _calls).
                key = f"{self._classes[-1].name}.{node.attr}"
                self.calls.setdefault(key, []).append(node)
            else:
                self._state(node.attr, node)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        for target in _filled(node):
            self._fill(target)
        self.generic_visit(node)

    def _fill(self, target: ast.expr) -> None:
        for value in self._bound(target):
            for inner in _chain(value):
                if isinstance(inner, ast.Attribute):
                    self._state(inner.attr, inner)

    def visit_Call(self, node: ast.Call) -> None:
        name = _callee(node)
        for target in _filled(node):
            self._fill(target)
        if name == "setattr" and len(node.args) > 1:
            for field_name in self._bound(node.args[1]):
                if isinstance(field_name, ast.Constant) and isinstance(
                    field_name.value, str
                ):
                    self._state(field_name.value, node)
                elif (
                    isinstance(field_name, ast.JoinedStr)
                    and field_name.values
                    and isinstance(field_name.values[0], ast.Constant)
                ):
                    self._state(field_name.values[0].value + "*", node)
        if self._classes:
            owner = self._classes[-1]
            if name == "cls" or (
                name == "replace" and any(k.arg is None for k in node.keywords)
            ):
                name = owner.name
            elif (
                name == "__init__"
                and isinstance(node.func.value, ast.Call)
                and _callee(node.func.value) == "super"
                and owner.bases
            ):
                name = ast.unparse(owner.bases[0]).split(".")[-1]
        if name in _SCHEDULERS and len(node.args) > 1:
            callback = node.args[1]
            if isinstance(callback, (ast.Name, ast.Attribute)):
                scheduled = ast.Call(callback, node.args[2:], [])
                self.calls.setdefault(_callee(scheduled), []).append(scheduled)
        if name is not None:
            self.calls.setdefault(name, []).append(node)
        self.generic_visit(node)


def _inherited_inits(root: Path) -> dict[str, str]:
    """Class -> the ancestor whose ``__init__`` it inherits, for every
    ``src/`` class that is no dataclass and defines none of its own."""
    classes = {
        node.name: node
        for path in sorted((root / "src").rglob("*.py"))
        for node in _tree(path).body
        if isinstance(node, ast.ClassDef)
    }

    def defines_init(node: ast.ClassDef) -> bool:
        return _is_dataclass(node) or any(
            isinstance(item, ast.FunctionDef) and item.name == "__init__"
            for item in node.body
        )

    found = {}
    for name, node in classes.items():
        ancestor = node
        while not defines_init(ancestor) and ancestor.bases:
            ancestor = classes.get(ast.unparse(ancestor.bases[0]).split(".")[-1])
            if ancestor is None:
                break
        if ancestor is not None and ancestor is not node and defines_init(ancestor):
            found[name] = ancestor.name
    return found


@cache
def _calls(root: Path) -> dict[str, list[ast.AST]]:
    index = _CallIndex()
    for path in program_files(root):
        index.visit(_tree(path))
    calls = index.calls
    for name, ancestor in _inherited_inits(root).items():
        calls.setdefault(ancestor, []).extend(calls.get(name, []))
    # A store on self in a class sets the field of every class it inherits.
    for key in [key for key in calls if "." in key[1:]]:
        owner, _, attr = key.partition(".")
        seen, ancestors = {owner}, list(index.bases.get(owner, []))
        while ancestors:
            ancestor = ancestors.pop()
            if ancestor not in seen:
                seen.add(ancestor)
                calls.setdefault(f"{ancestor}.{attr}", []).extend(calls[key])
                ancestors += index.bases.get(ancestor, [])
    # A field handed to a function that fills that parameter is state,
    # and so is one whose name is handed to a function that sets it.
    for fills, state in ((index.fills, _attribute), (index.names, _literal)):
        for name, filled in fills.items():
            for call in list(calls.get(name, [])):
                handed = list(enumerate(call.args)) + [
                    (k.arg, k.value) for k in call.keywords if k.arg is not None
                ]
                for key, value in handed:
                    field_name = state(value)
                    if key in filled and field_name is not None:
                        calls.setdefault("." + field_name, []).append(value)
    return calls


def _attribute(node: ast.expr) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else None


def _literal(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def is_set(value: Settable, calls: dict[str, list[ast.AST]]) -> bool:
    if value.field and (
        "." + value.name in calls
        or f"{value.owner}.{value.name}" in calls
        or any(
            key.endswith("*") and value.name.startswith(key[1:-1])
            for key in calls
            if key.startswith(".")
        )
    ):
        return True
    callee = value.owner.split(".")[-1]
    for call in calls.get(callee, []):
        if any(k.arg is None for k in call.keywords):
            return True  # **kwargs: may set anything
        if any(k.arg == value.name for k in call.keywords):
            return True
        if value.position is not None:
            if any(isinstance(a, ast.Starred) for a in call.args):
                return True
            if len(call.args) > value.position:
                return True
    return False


def unset_values(root: Path = ROOT) -> list[Settable]:
    calls = _calls(root)
    return [v for v in settables(root) if not is_set(v, calls)]


def main() -> None:
    unused = unused_definitions()
    print(f"definitions with no program user: {len(unused)} "
          f"({sum(d.lines for d in unused)} lines)")
    for d in unused:
        print(f"  {d.path}:{d.start} {d.qualname} ({d.lines})")
    entries = reexports()
    missing = unimported_reexports()
    print(f"re-exports: {len(entries)} in __all__, {len(missing)} not imported "
          "through their package")
    for package, name in missing:
        print(f"  {package}.{name}")
    for package, name in init_imports_outside_all():
        print(f"  imported by {package}/__init__.py, not in __all__: {name}")
    values = settables()
    unset = unset_values()
    print(f"settable values: {len(values)}, set by no program call: {len(unset)}")
    for v in unset:
        print(f"  {v.path} {v.owner}({v.name}=)")


if __name__ == "__main__":
    main()
