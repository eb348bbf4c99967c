"""Guards on the package's shape: every public name it defines, and every
default of its public functions, must be used by the package itself or by the
acceptance suite, nothing it runs may need scipy, every seed goes through the
one seeding rule, every memory estimate through the one budget check, nothing
reads the environment, and every name the traced benchmark harness wraps
exists."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "unoma"


def _definitions(tree):
    """(qualified name, name, node) for each top-level function, class and
    assignment, and each method of a public top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node


def _referenced(name, definition, trees) -> bool:
    """Whether any module uses `name` (as a name, an attribute or an import)
    outside `definition`. Methods are matched by attribute name only."""
    for tree in trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is definition:
                continue
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and node.name == name):
                return True
            stack.extend(ast.iter_child_nodes(node))
    return False


def _acceptance_imports() -> set:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "unoma"
            for alias in node.names}


def test_every_public_name_is_reached():
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    trees = list(modules.values())
    allowed = _acceptance_imports()
    unreached = [f"{module}:{qualified}"
                 for module, tree in modules.items()
                 for qualified, name, node in _definitions(tree)
                 if not name.startswith("_") and name not in allowed
                 and not _referenced(name, node, trees)]
    assert unreached == [], f"public names nothing uses: {unreached}"


def _defaulted_parameters(tree):
    """(qualified name, name, parameter, position) for each parameter with a
    default of each public function and public method; position is None for
    a keyword-only one, and a method's excludes self."""
    for qualified, name, node in _definitions(tree):
        if not isinstance(node, ast.FunctionDef) or name.startswith("_"):
            continue
        params = node.args.posonlyargs + node.args.args
        if "." in qualified:
            params = params[1:]
        first = len(params) - len(node.args.defaults)
        for pos, arg in enumerate(params[first:], first):
            yield qualified, name, arg.arg, pos
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield qualified, name, arg.arg, None


def _passes(call, name, param, pos) -> bool:
    """Whether the call is to `name` (as a name or an attribute) and sets
    param, by keyword, by position, or through *args or **kwargs."""
    func = call.func
    if getattr(func, "id", None) != name and getattr(func, "attr", None) != name:
        return False
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return any(isinstance(a, ast.Starred) for a in call.args) or (
        pos is not None and len(call.args) > pos)


def test_every_default_is_passed_by_some_caller():
    """Each parameter with a default of a public function or method is set
    by some call in the package or in the acceptance suite, so an option only
    tests set cannot stay. cli.main's argv is exempt: the console script
    calls main() and relies on its default."""
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    trees = [*modules.values(),
             ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())]
    calls = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = [f"{module}:{qualified}.{param}"
             for module, tree in modules.items()
             for qualified, name, param, pos in _defaulted_parameters(tree)
             if (module, qualified, param) != ("cli.py", "main", "argv")
             and not any(_passes(c, name, param, pos) for c in calls)]
    assert unset == [], f"parameters no caller sets: {unset}"


def test_no_module_imports_scipy():
    """No import of scipy anywhere in the package, at module level or inside a
    function, except in a module-level __getattr__: that runs only when code
    outside the package asks for a name the module does not define
    (allocation's resolves `minimize` for the traced benchmark harness)."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        tree.body = [node for node in tree.body
                     if not (isinstance(node, ast.FunctionDef)
                             and node.name == "__getattr__")]
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert offenders == [], f"scipy imported at {offenders}"


def test_import_loads_no_scipy():
    code = ("import sys, unoma.cli, unoma.engine; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout.strip() == "[]"


def test_seed_sequences_only_in_the_seeding_rule():
    """Every SeedSequence and every generator the package makes is made in
    metrics.point_rng, the one seeding rule, so a second seeding scheme cannot
    come back unnoticed."""
    inside, outside = 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        rule = {id(node) for top in tree.body
                if path.name == "metrics.py" and isinstance(top, ast.FunctionDef)
                and top.name == "point_rng" for node in ast.walk(top)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and {"SeedSequence", "default_rng"} & {
                    getattr(func, "id", None), getattr(func, "attr", None)}:
                if id(node) in rule:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert inside > 0 and outside == [], f"seeded outside point_rng at {outside}"


def test_memory_budget_only_in_its_check():
    """MEMORY_BUDGET is assigned only in metrics.py and read only inside
    metrics.within_budget, the one check every memory estimate goes through,
    and no module imports it, so a second copy of the budget or a comparison
    beside the check cannot come back unnoticed."""
    assigned, inside, outside = [], 0, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        check = {id(node) for top in tree.body
                 if path.name == "metrics.py" and isinstance(top, ast.FunctionDef)
                 and top.name == "within_budget" for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name == "MEMORY_BUDGET":
                outside.append(f"{path.name}:{node.lineno} import")
            elif (getattr(node, "id", None) == "MEMORY_BUDGET"
                  or getattr(node, "attr", None) == "MEMORY_BUDGET"):
                if isinstance(node.ctx, ast.Store):
                    assigned.append(path.name)
                elif id(node) in check:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert assigned == ["metrics.py"], f"MEMORY_BUDGET assigned in {assigned}"
    assert inside > 0 and outside == [], f"MEMORY_BUDGET read at {outside}"


def test_no_module_reads_the_environment():
    """No os.environ, os.environb or os.getenv anywhere in the package, so an
    environment knob beside the config and the command line cannot come back
    unnoticed."""
    knobs = {"environ", "environb", "getenv", "getenvb"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) and node.module == "os"
                     else [node.attr] if isinstance(node, ast.Attribute)
                     and getattr(node.value, "id", None) == "os" else [])
            offenders += [f"{path.name}:{node.lineno} os.{name}"
                          for name in names if name in knobs]
    assert offenders == [], f"the environment is read at {offenders}"


def test_names_the_traced_harness_wraps_exist(monkeypatch):
    """benchmarks/sweep.py wraps package functions by (module, attribute)
    name; a rename on the package side fails here, not only in a traced
    benchmark run. The harness's helpers need only the standard library."""
    benchmarks = ROOT / "benchmarks"
    monkeypatch.syspath_prepend(str(benchmarks))
    spec = importlib.util.spec_from_file_location("sweep", benchmarks / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    import unoma.engine
    targets = [(module, attr) for module, attr, _, _ in sweep.layer_targets([], [])]
    targets.append((unoma.engine, "_run_point"))
    missing = [f"{module.__name__}.{attr}" for module, attr in targets
               if not hasattr(module, attr)]
    assert missing == [], f"the traced harness wraps missing names {missing}"
