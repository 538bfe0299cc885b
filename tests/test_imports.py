"""Every import in the package is used, every exported name is defined,
every private module-level name is referenced, every attribute a class
stores on ``self`` is read, a module reads another
module's private names only where the list below allows it, the command
line gives a flag a default only where the parameter it feeds has none and
reads each flag's choices from a library name, the package module binds
only ``__version__``, only the atomic writer makes a directory (stdlib-only
lint checks), and no module-level array can be written into."""

import ast
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stagecast"
MODULES = sorted(PACKAGE.glob("*.py"))


def _exported(tree) -> list[str]:
    """The string entries of the module's ``__all__``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names += [elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)]
    return names


def _defined(node) -> list[str]:
    """The names a module-level statement defines by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _imported(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        for name in _imported(node):
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_exported(tree))  # a name listed in __all__ is re-exported, which counts as a use
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def _undefined_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {name for node in tree.body for name in _defined(node) + _imported(node)}
    return [name for name in _exported(tree) if name not in defined]


def _unreferenced_privates(sources: dict) -> list[str]:
    """``module: name`` for each module-level ``_private`` def, class or
    constant that no module of ``sources`` (name -> text) reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = "import json\nimport os as system\nfrom numpy import array, zeros\nzeros(3)\n"
    assert _unused_imports(source) == ["line 3: array", "line 1: json", "line 2: system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    assert _undefined_exports(path.read_text()) == []


def test_the_check_finds_an_undefined_export():
    source = (
        '__all__ = ["defined", "Shape", "LIMIT", "zeros", "missing"]\n'
        "from numpy import zeros\ndef defined(): pass\nclass Shape: pass\nLIMIT = 3\n"
    )
    assert _undefined_exports(source) == ["missing"]


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text() for path in MODULES}
    assert _unreferenced_privates(sources) == []


def test_the_check_finds_an_unreferenced_private_name():
    sources = {
        "a.py": "_USED = 1\n_UNUSED = 2\ndef _helper():\n    return _USED\ndef _leftover(): pass\n",
        "b.py": "from a import _helper\nvalue = _helper()\n",
    }
    assert _unreferenced_privates(sources) == ["a.py: _UNUSED", "a.py: _leftover"]


def _write_only_attributes(sources: dict) -> list[str]:
    """``module: Class.name`` for each attribute that a class of ``sources``
    (name -> text) stores on ``self`` and no module of ``sources`` loads.
    Names declared in the class body are exempt: they are dataclass and
    NamedTuple fields, which ``fileio`` reads through ``dataclasses.fields``
    and ``_fields``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loaded = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = set()
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}
            found |= {
                f"{module}: {cls.name}.{node.attr}"
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
                and node.attr not in fields | loaded
            }
    return sorted(found)


def test_every_stored_attribute_is_read():
    sources = {path.name: path.read_text() for path in MODULES}
    assert _write_only_attributes(sources) == []


def test_the_check_finds_a_write_only_attribute():
    sources = {
        "a.py": (
            "class Box:\n    def __init__(self, w, h):\n        self.w, self.h = w, h\n"
            "        self.area = w * h\n"
            "@dataclass\nclass Row:\n    n: int\n    def __post_init__(self):\n"
            "        self.n = 0\n        self.cache = None\n"
        ),
        "b.py": "def width(box):\n    return box.w\n",
    }
    assert _write_only_attributes(sources) == ["a.py: Box.area", "a.py: Box.h", "a.py: Row.cache"]


def _package_bindings(source: str) -> list[str]:
    """``line n: name`` for each import in a package ``__init__`` and each
    name it binds other than ``__version__``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append((node.lineno, "import"))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id != "__version__":
                found.append((node.lineno, node.id))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_package_binds_only_its_version():
    """Each public name is imported from its own module and listed once, in
    that module's ``__all__``; importing the package changes no state."""
    assert _package_bindings((PACKAGE / "__init__.py").read_text()) == []


def test_the_check_finds_a_package_binding():
    source = (
        '"""Doc."""\nimport os as _os\n__version__ = "1"\nfrom .solver import solve\n'
        '__all__ = ["solve"]\nfor _var in ("A",):\n    _os.environ.setdefault(_var, "1")\n'
        "class Shape: pass\n"
    )
    assert _package_bindings(source) == [
        "line 2: import", "line 4: import", "line 5: __all__", "line 6: _var", "line 8: Shape",
    ]


# The only private names one module of the package may read from another:
# the network's forward and backward pass and the buffers they write, which
# the training loss runs on stacked data and collocation rows, and the
# read-only array maker the solver shares with geometry.
PRIVATE_READS = [
    "solver.py: geometry._read_only",
    "training.py: surrogate._Workspace",
    "training.py: surrogate._backward",
    "training.py: surrogate._features",
    "training.py: surrogate._forward",
    "training.py: surrogate._normalize",
]


def _private_reads(sources: dict) -> list[str]:
    """``module: other._name`` for each private name that a module of
    ``sources`` (name -> text) imports from a sibling module."""
    return sorted(
        f"{module}: {node.module}.{alias.name}"
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def test_private_names_cross_modules_only_where_listed():
    sources = {path.name: path.read_text() for path in MODULES}
    assert _private_reads(sources) == PRIVATE_READS


def test_the_check_finds_an_unlisted_private_read():
    sources = {
        "a.py": "from .b import _hidden, shown\nfrom . import __version__\nfrom numpy import _x\n",
        "b.py": "def f():\n    from .a import _late as late\n    return late\n",
    }
    assert _private_reads(sources) == ["a.py: b._hidden", "b.py: a._late"]


# The only flags that carry a default of their own: each feeds a parameter
# that has none.  Every other flag, left out, is not forwarded, so the
# library function or config it feeds supplies the default.
FLAG_DEFAULTS = ["ablate --budget", "ablate --seed", "simulate --peak-factor"]


def _flag_defaults(source: str) -> list[str]:
    """``command --flag`` for each ``add_argument`` call that passes
    ``default=``, under the last ``_command(sub, "command", ...)`` above it."""
    calls = sorted(
        (
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
        ),
        key=lambda node: (node.lineno, node.col_offset),
    )
    found, command = [], None
    for call in calls:
        name = call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
        if name == "_command":
            command = call.args[1].value
        elif name == "add_argument" and any(kw.arg == "default" for kw in call.keywords):
            found.append(f"{command} {call.args[0].value}")
    return sorted(found)


def test_cli_defaults_live_in_the_library():
    assert _flag_defaults((PACKAGE / "cli.py").read_text()) == FLAG_DEFAULTS


def test_the_check_finds_a_flag_default():
    source = (
        'p = _command(sub, "run", f, "help")\n'
        'p.add_argument("--size", type=int, default=3)\n'
        'p.add_argument("--name", help="text")\n'
        'p = _command(sub, "stop", g, "help")\n'
        'p.add_argument("--force", action="store_true", default=False)\n'
        'parser.add_argument("--version", action="version", version="1")\n'
    )
    assert _flag_defaults(source) == ["run --size", "stop --force"]


def _literal_choices(source: str) -> list[str]:
    """The first flag of each ``add_argument`` call whose ``choices=`` is
    not a name: a vocabulary belongs to the module that checks it, which
    exports it for the parser to read."""
    return [
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for kw in node.keywords
        if kw.arg == "choices" and not isinstance(kw.value, ast.Name)
    ]


def test_cli_choices_are_library_names():
    assert _literal_choices((PACKAGE / "cli.py").read_text()) == []


def test_the_check_finds_a_literal_choice_list():
    source = (
        'p.add_argument("--mode", choices=("fast", "slow"))\n'
        'p.add_argument("--kind", choices=["a", "b"], help="text")\n'
        'p.add_argument("--activation", choices=ACTIVATIONS)\n'
        'p.add_argument("--size", type=int)\n'
    )
    assert _literal_choices(source) == ["--mode", "--kind"]


# The only place the package makes a directory: the atomic writer makes the
# missing parent of the file it is about to write, so no command or writer
# makes one ahead of the first write.
MKDIR_CALLS = ["fileio.py: _write_through_temp"]


def _mkdir_calls(sources: dict) -> list[str]:
    """``module: function`` for each ``.mkdir(`` or ``.makedirs(`` call in
    ``sources`` (name -> text), under the innermost def that holds it."""
    def calls(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from calls(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("mkdir", "makedirs")):
                yield where
            yield from calls(child, where)

    return sorted(
        f"{module}: {where}"
        for module, text in sources.items()
        for where in calls(ast.parse(text), "<module>")
    )


def test_only_the_atomic_writer_makes_directories():
    sources = {path.name: path.read_text() for path in MODULES}
    assert _mkdir_calls(sources) == MKDIR_CALLS


def test_the_check_finds_a_directory_made_elsewhere():
    sources = {
        "a.py": (
            "import os\ndef write(p):\n    p.parent.mkdir(parents=True)\n"
            "class Store:\n    def save(self, d):\n        os.makedirs(d)\n"
            "Path('cache').mkdir()\n"
        ),
        "b.py": "def helper():\n    return lambda p: p.mkdir()\ndef clean(p):\n    p.rmdir()\n",
    }
    assert _mkdir_calls(sources) == ["a.py: <module>", "a.py: save", "a.py: write", "b.py: helper"]


def _writable_module_arrays(modules) -> list[str]:
    """``module.name`` for each module-level numpy array of ``modules`` that
    a caller could write into."""
    return [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, np.ndarray) and value.flags.writeable
    ]


def test_module_arrays_are_read_only():
    """A shared operand such as the solver's 0-d g is read-only, so no
    caller can change the physics by writing into it."""
    names = ["stagecast" if p.stem == "__init__" else f"stagecast.{p.stem}" for p in MODULES]
    # __main__ runs the CLI when imported
    modules = [importlib.import_module(name) for name in names if name != "stagecast.__main__"]
    assert _writable_module_arrays(modules) == []


def test_the_check_finds_a_writable_module_array():
    module = types.ModuleType("fake")
    module.FROZEN = np.array(2.0)
    module.FROZEN.setflags(write=False)
    module.OPEN = np.zeros(())
    module.VIEW = module.FROZEN[...]
    module.NUMBER = 2.0
    assert _writable_module_arrays([module]) == ["fake.OPEN"]
