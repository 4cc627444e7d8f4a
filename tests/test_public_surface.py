"""What the package shows its users: the README's example, and no test
oracle among the library's names."""
import importlib
import pkgutil
import sys
from pathlib import Path

import pdcfa

README = Path(__file__).resolve().parent.parent / "README.md"

# definitions that live in tests/helpers.py, and ones deleted outright (the
# node classes analyses.State replaced, and PolySplit, a policy no --k
# reached, among them: no alias survives)
ORACLE_NAMES = (
    "AConf", "ainject", "step_conf", "leq", "_val_leq", "_vals_leq",
    "_env_leq", "alpha", "_alpha_val", "_alpha_env", "run_abstracted",
    "IncomparableKinds", "UnmappedAddress", "compact_naive", "net",
    "stackify", "compute_root_cache", "alpha_equiv", "_SCOPE", "_UNSCOPE",
    "stack_root", "gc", "gc_step", "free_vars", "ControlState", "PState",
    "OPState", "FState", "finject", "kaddr_skey", "PolySplit")


def test_readme_library_use_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    assert ns["outcome"] == ("halt", 42)
    assert ns["result"].saturated and ns["count"] >= 1


def test_no_module_defines_a_test_oracle():
    modules = [pdcfa] + [importlib.import_module(m.name) for m in
                         pkgutil.walk_packages(pdcfa.__path__, "pdcfa.")]
    assert len(modules) >= 10
    for mod in modules:
        for name in ORACLE_NAMES:
            # pdcfa.gc, the submodule, is the package's attribute `gc`
            assert getattr(mod, name, None) in (
                None, sys.modules.get(f"pdcfa.{name}")), (mod.__name__, name)
