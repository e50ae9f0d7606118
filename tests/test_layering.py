"""Layering rules, checked on the source tree so the seams cannot erode.

* ``repro.sim`` and ``repro.common`` are the bottom of the stack: they
  import nothing from ``repro.obs`` or ``repro.evaluation`` (not even
  lazily), and the kernel does not know the profiler by name.
* Outside ``repro.obs`` a profiler frame is opened one way only —
  ``with hostprof.scope(...)``. Nothing asks for the active profiler and
  nothing calls ``push``/``pop`` on an object it got from the module,
  because a bare pair leaks its frame when the code in between raises.
* The third-party modules ``src/repro`` imports are exactly the declared
  runtime dependencies, so ``pyproject.toml`` cannot list what nothing uses.
* A run's identity has one home: outside ``repro.obs.runspec``, the engine
  configs and the fabric registry no module spells the ``"direct"``/``"hash"``
  defaults, and racks become workers per rack in one place
  (``ClusterSpec.rack_size_for``), twolevel's four-rack default with them.
* No environment-variable back doors: a run's inputs are its arguments.
  Under ``src/`` only ``obs.history.resolve_commit`` reads the environment
  (``REPRO_GIT_COMMIT``, provenance only — it never changes a result).
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
HOSTPROF = "repro.obs.hostprof"


def _modules(*packages):
    roots = [SRC / p for p in packages] if packages else [SRC]
    return sorted(path for root in roots for path in root.rglob("*.py"))


def _imported_modules(tree):
    """Every module named by an import statement, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_bottom_layers_import_no_observer():
    upward = [
        (str(path.relative_to(SRC)), name)
        for path in _modules("sim", "common")
        for name in _imported_modules(ast.parse(path.read_text()))
        if name.startswith(("repro.obs", "repro.evaluation"))
    ]
    assert not upward


def test_third_party_imports_are_the_declared_dependencies():
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", spec).group() for spec in project["dependencies"]}
    imported = {
        name.partition(".")[0]
        for path in _modules()
        for name in _imported_modules(ast.parse(path.read_text()))
    }
    assert imported - set(sys.stdlib_module_names) - {"repro"} == declared


def test_kernel_does_not_name_the_profiler():
    hits = [str(p) for p in _modules("sim") if "hostprof" in p.read_text()]
    assert not hits, f"'hostprof' occurs under src/repro/sim: {hits}"


def _root_name(node):
    while isinstance(node, (ast.Attribute, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _hostprof_misuse(tree):
    """``(lineno, what)`` for each forbidden use of the profiler module."""
    from_module = set()  # the module itself, or anything imported from it
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            from_module.update(
                alias.asname or alias.name for alias in node.names if alias.name == HOSTPROF
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.obs":
            from_module.update(
                alias.asname or alias.name for alias in node.names if alias.name == "hostprof"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == HOSTPROF:
            for alias in node.names:
                if alias.name == "current":
                    yield node.lineno, "imports hostprof.current"
                from_module.add(alias.asname or alias.name)
    # names bound to what a call into the module returned: `prof = X.f()`,
    # `with X.scope(...) as frame`
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            value = node.value
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            value, targets = node.context_expr, [node.optional_vars]
        else:
            continue
        if isinstance(value, ast.Call) and _root_name(value) in from_module:
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = _root_name(node.func.value)
        if node.func.attr == "current" and owner in from_module:
            yield node.lineno, "calls hostprof.current()"
        if node.func.attr in ("push", "pop") and owner in bound:
            yield node.lineno, f"calls .{node.func.attr}() on a profiler object"


def test_misuse_detector_sees_what_it_should():
    bad = ast.parse(
        "from repro.obs import hostprof as _hp\n"
        "prof = _hp.current()\n"
        "prof.push('engine', 'x')\n"
        "with _hp.scope('engine', 'y') as frame:\n"
        "    frame.pop()\n"
        "stack = []\n"
        "stack.pop()\n"  # an unrelated .pop() is fine
    )
    assert [line for line, _ in _hostprof_misuse(bad)] == [2, 3, 5]


def test_frames_open_only_through_scope():
    misuse = [
        (str(path.relative_to(SRC)), line, what)
        for path in _modules()
        if SRC / "obs" not in path.parents
        for line, what in _hostprof_misuse(ast.parse(path.read_text()))
    ]
    assert not misuse


# -- run identity: one home for the exchange defaults and the rack rule -------------

#: where the exchange defaults may be spelled: the run-identity module, the
#: engine configs and the fabric registry
DEFAULTS_HOME = ("obs/runspec.py", "core/engine.py", "mapreduce/engine.py", "dataplane/fabrics.py")


def _default_literals(tree):
    """Lines spelling the literal ``"direct"`` or ``"hash"``: a comparison
    against a default, a parameter, field or ``.get`` default, an ``or``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("direct", "hash")
    )


def _rack_conversions(tree):
    """Lines of ``max(1, workers // racks)``: racks turned into workers per rack."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "max"
        and len(node.args) == 2
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == 1
        and isinstance(node.args[1], ast.BinOp)
        and isinstance(node.args[1].op, ast.FloorDiv)
    )


def test_run_identity_detectors_see_what_they_should():
    bad = ast.parse(
        '"""The direct fabric and the hash partitioner, in prose."""\n'
        'def f(fabric="direct"):\n'
        '    if fabric != "direct":\n'
        '        return entry.get("partitioner", "hash")\n'
        '    return fabric or "direct"\n'
        'label = f"{engine}@direct"\n'  # text inside an f-string is not a default
        'kind = "directory"\n'
        'rack_size = max(1, spec.num_workers // 4)\n'
        'rack_size = max(1, workers // racks)\n'
        'width = max(2, n // 4) + max(1, n / 4)\n'
    )
    assert _default_literals(bad) == [2, 3, 4, 5]
    assert _rack_conversions(bad) == [8, 9]


def test_exchange_defaults_are_spelled_in_one_home():
    spelled = [
        (rel, line)
        for path in _modules()
        if (rel := str(path.relative_to(SRC))) not in DEFAULTS_HOME
        for line in _default_literals(ast.parse(path.read_text()))
    ]
    assert not spelled, f"use RunSpec's defaults instead: {spelled}"


def test_the_rack_rule_has_one_home():
    sites = [
        str(path.relative_to(SRC))
        for path in _modules()
        for _line in _rack_conversions(ast.parse(path.read_text()))
    ]
    assert sites == ["cluster/spec.py"]


# -- no environment-variable back doors ---------------------------------------------

#: the one function allowed to read the environment: (module, function)
ENV_READER = ("obs/history.py", "resolve_commit")


def _environment_reads(tree):
    """``(lineno, enclosing function)`` of each ``os.environ``/``os.getenv``
    use, however ``os`` or the name was imported."""
    os_names, direct = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(a.asname or a.name for a in node.names if a.name == "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            direct.update(
                a.asname or a.name for a in node.names if a.name in ("environ", "getenv")
            )
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ) or (isinstance(node, ast.Name) and node.id in direct):
            reads.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return reads


def test_environment_detector_sees_what_it_should():
    bad = ast.parse(
        "import os\n"
        "import os as _os\n"
        "from os import environ, getenv as ge\n"
        "LEVEL = os.environ.get('X')\n"
        "def f():\n"
        "    return _os.getenv('Y') or environ['Z']\n"
        "def g():\n"
        "    return ge('W'), os.path.join('a', 'b'), config.environ\n"
    )
    assert _environment_reads(bad) == [(4, None), (6, "f"), (6, "f"), (8, "g")]


def test_only_resolve_commit_reads_the_environment():
    reads = [
        (rel, line, function)
        for path in _modules()
        for line, function in _environment_reads(ast.parse(path.read_text()))
        if (rel := str(path.relative_to(SRC)), function) != ENV_READER
    ]
    assert not reads, f"read the environment only in {ENV_READER}: {reads}"
