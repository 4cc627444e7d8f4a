"""What the package shows its users: the README's example, and no test
oracle among the library's names; and no unused import in the code."""
import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pdcfa

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# definitions that live in tests/helpers.py, and ones deleted outright (the
# node classes analyses.State replaced, PolySplit, a policy no --k reached,
# the wrappers a Lambda, a TailCall and a benchmark name replaced, the
# atom wrappers a Var, a literal's value and a primitive's name replaced,
# and the per-kind entry points run_one replaced, among them: no alias
# survives)
ORACLE_NAMES = (
    "AConf", "ainject", "step_conf", "leq", "_val_leq", "_vals_leq",
    "_env_leq", "alpha", "_alpha_val", "_alpha_env", "run_abstracted",
    "IncomparableKinds", "UnmappedAddress", "compact_naive", "net",
    "stackify", "compute_root_cache", "least_entry_roots", "kcfa2n_source",
    "alpha_equiv", "_SCOPE", "_UNSCOPE", "stack_root", "gc", "gc_step",
    "free_vars", "ControlState", "PState", "OPState", "FState", "finject",
    "kaddr_skey", "PolySplit", "Lam", "Call", "BenchmarkEntry", "BY_NAME",
    "AExp", "Ref", "Lit", "PrimRef", "analyze_pdcfa", "analyze_gc_precise",
    "analyze_gc_approx", "analyze_pdcfa_widened", "analyze_finite",
    "_tokenize")


def test_readme_library_use_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    assert ns["outcome"] == ("halt", 42)
    assert ns["result"].saturated and ns["count"] >= 1


def test_run_one_is_the_one_way_to_start_an_analysis():
    """The CLI, the package and the benchmark child (which imports
    pdcfa.cli.run_one) start every analysis through one function."""
    from pdcfa import analyses, cli
    assert cli.run_one is analyses.run_one is pdcfa.run_one
    assert not hasattr(pdcfa, "compact_worklist")


def test_no_module_defines_a_test_oracle():
    modules = [pdcfa] + [importlib.import_module(m.name) for m in
                         pkgutil.walk_packages(pdcfa.__path__, "pdcfa.")]
    assert len(modules) >= 10
    for mod in modules:
        for name in ORACLE_NAMES:
            # pdcfa.gc, the submodule, is the package's attribute `gc`
            assert getattr(mod, name, None) in (
                None, sys.modules.get(f"pdcfa.{name}")), (mod.__name__, name)


def _unused_imports(path):
    """(line, name) of each name path imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        imported.update((name, node.lineno) for name in names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    """No linter is a dependency, so this is the check.  The package's
    __init__ imports only to re-export."""
    paths = [p for p in (*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py"),
                         *ROOT.glob("perfbench/**/*.py"))
             if p != ROOT / "src" / "pdcfa" / "__init__.py"]
    assert len(paths) >= 30
    unused = {str(p.relative_to(ROOT)): u for p in paths
              if (u := _unused_imports(p))}
    assert unused == {}


def test_abstract_machine_imports_nothing_of_the_concrete_one():
    """Both machines raise syntax.UnboundVariableError; the concrete module
    still offers it under its old name."""
    from pdcfa import concrete, syntax
    tree = ast.parse((ROOT / "src" / "pdcfa" / "abstract.py")
                     .read_text(encoding="utf-8"))
    names = [(n.module or "") + ":" + a.name for n in ast.walk(tree)
             if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names]
    assert names and not [x for x in names if "concrete" in x]
    assert concrete.UnboundVariableError is syntax.UnboundVariableError
