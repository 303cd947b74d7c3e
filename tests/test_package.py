"""The package entry: its public names, and what a fresh process executes
on `import bentfn` and on each CLI verb."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bentfn

SUBMODULES = ("errors", "rng", "gf2", "gf2vec", "boolfn", "vectorial",
              "derivative", "construct", "decomp", "verify")

# Prints the bentfn submodules a process has executed, as its last line.
# A registered but unused submodule is still LazyLoader's module subclass.
EXECUTED = (
    "import json, sys, types\n"
    "print(json.dumps(sorted(name[7:] for name, mod in sys.modules.items()\n"
    "                        if name.startswith('bentfn.')\n"
    "                        and type(mod) is types.ModuleType)))\n"
)


def fresh(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    """Run `python *argv` with this checkout's bentfn on the path."""
    src = str(Path(bentfn.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


def test_public_names_resolve_once():
    assert len(set(bentfn.__all__)) == len(bentfn.__all__)
    missing = [name for name in bentfn.__all__ if not hasattr(bentfn, name)]
    assert missing == []


def _imported_and_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names a module's imports bind, and the names it reads,
    annotations included (unquoted, they parse as names)."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("path", sorted(Path(bentfn.__file__).parent.glob("*.py"))
                         + sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda p: p.name if p.parent.name == "bentfn" else f"tests/{p.name}")
def test_no_unused_imports(path):
    imported, used = _imported_and_used(ast.parse(path.read_text()))
    assert sorted(imported - used) == []


# Public names no other library module refers to, each with the reason it
# stays public.  A name leaves this list when it gains a reference or
# stops being public.
ALLOWED = {
    "BentError": "base class for callers that catch every library error",
    "Subspace": "the result type of enumerate_M_subspaces",
    "PropertyPResult": "the result type of check_property_P",
    "DecompositionReport": "the result type of classify_decomposition",
    "PlaneScan": "the result type of scan_decompositions",
    "ScanRecord": "the item type of a PlaneScan, which the bench iterates",
    "CriterionResult": "the result type of run_suite and run_criterion",
    "run_criterion": "runs one criterion of the suite",
    "anf": "analysis API named in README, What is here",
    "autocorrelation": "analysis API named in README, What is here",
    "derivative": "analysis API named in README, What is here",
    "second_derivative": "analysis API named in README, What is here",
    "check_component_dual_linearity": "pending ROADMAP item 8",
    "is_vectorial_bent": "pending ROADMAP item 8",
    "g_lambda": "pending ROADMAP item 9",
    "glambda_nonconstant": "pending ROADMAP item 9",
}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, every attribute it takes, and every
    name it imports from a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def test_public_names_have_library_callers():
    # a public name must be referred to by a library module other than
    # its own (the CLI counts), or be allowed above with a reason
    package = Path(bentfn.__file__).parent
    refs = {p.stem: _referenced_names(ast.parse(p.read_text()))
            for p in package.glob("*.py") if p.stem != "__init__"}
    unreached = {name for mod, names in bentfn._PUBLIC.items() for name in names
                 if not any(name in r for other, r in refs.items() if other != mod)}
    assert sorted(unreached - ALLOWED.keys()) == []
    # stale entries: names no longer public, or now referred to
    assert sorted(ALLOWED.keys() - unreached) == []


def _imported_modules(tree: ast.Module) -> set[str]:
    """The names that `import m` and `from . import m` bind in a module."""
    return {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module is None
            for a in node.names}


def _member_reads(tree: ast.AST, modules: set[str]) -> Counter:
    """How often each name is taken as an attribute `obj.name` in a tree,
    leaving out attributes of the imported modules (np.add, builtins.pow)."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and not (isinstance(node.value, ast.Name) and node.value.id in modules))


def test_public_members_have_library_callers():
    # a public method or property of a library class must be taken as an
    # attribute somewhere in the library outside its own def; a bare name
    # (a local `inv`) or a module's attribute (`np.add`) does not count
    trees = [ast.parse(p.read_text()) for p in Path(bentfn.__file__).parent.glob("*.py")]
    modules = [_imported_modules(tree) for tree in trees]
    reads = sum(map(_member_reads, trees, modules), Counter())
    unreached = [f"{cls.name}.{member.name}"
                 for tree, mods in zip(trees, modules)
                 for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for member in cls.body
                 if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not member.name.startswith("_")
                 and reads[member.name] == _member_reads(member, mods)[member.name]]
    assert unreached == []


def _function_reads(tree: ast.AST, modules: set[str]) -> tuple[Counter, Counter]:
    """How often each name is read in a tree as a function is: imported
    by name or taken as `module.name` of an imported module, and loaded
    as a bare name."""
    named, bare = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                named[node.attr] += 1
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare[node.id] += 1
    return named, bare


def test_library_functions_have_library_readers():
    # every top-level function of a library module must be read by the
    # library outside its own def, a bare name counting in its own module
    # only; `__init__` and `cli.main` are entry points, and the public
    # names of ALLOWED keep their reasons above
    package = Path(bentfn.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")
             if p.stem != "__init__"}
    modules = {mod: _imported_modules(tree) for mod, tree in trees.items()}
    reads = {mod: _function_reads(tree, modules[mod]) for mod, tree in trees.items()}
    named = sum((r[0] for r in reads.values()), Counter())
    unread = []
    for mod, tree in trees.items():
        for fn in tree.body:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (mod, fn.name) != ("cli", "main") and fn.name not in ALLOWED):
                inside = sum(_function_reads(fn, modules[mod]), Counter())
                if named[fn.name] + reads[mod][1][fn.name] == inside[fn.name]:
                    unread.append(f"{mod}.{fn.name}")
    assert unread == []


def test_submodule_attributes():
    assert bentfn.derivative is sys.modules["bentfn.derivative"].derivative
    assert bentfn.gf2vec is sys.modules["bentfn.gf2vec"]


def test_public_name_cached_after_first_lookup():
    vars(bentfn).pop("classify_decomposition", None)
    first = bentfn.classify_decomposition
    assert vars(bentfn)["classify_decomposition"] is first
    assert first is sys.modules["bentfn.decomp"].classify_decomposition


def test_import_executes_no_submodule():
    proc = fresh("-c", "import bentfn, sys\n"
                 "assert all(f'bentfn.{m}' in sys.modules for m in "
                 f"{SUBMODULES!r})\n" + EXECUTED)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


@pytest.fixture(scope="module")
def two_block_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "f.tt"
    ctx = bentfn.make_field(4)
    bentfn.save_table(bentfn.mm(ctx, bentfn.PermTable.inverse_map(ctx)), str(path))
    return str(path)


# `derivative` binds `gf2vec` without running it; a search does not run
# it either, only a `Subspace` that checks its basis.
BASE = {"cli", "errors", "gf2", "boolfn"}
SEARCH = BASE | {"derivative"}
BUILD = BASE | {"rng", "vectorial", "construct"}
PLANES = BUILD | {"decomp"}


@pytest.mark.parametrize("argv, executed", [
    (["analyze", "{f}"], BASE),
    (["msubspace", "{f}", "--max-dim", "2"], SEARCH),
    (["decompose", "{f}", "--u", "1", "--v", "2"], PLANES),
    (["construct", "--family", "mm", "--m", "3", "--out", "{out}"], BUILD),
    (["construct", "--family", "gmm", "--m", "2", "--out", "{out}"], BUILD),
    (["verify"], PLANES | SEARCH | {"gf2vec", "verify"}),
    (["construct", "--family", "psffff", "--m", "3", "--k", "1", "--out", "{out}"], PLANES),
    (["msubspace", "{f}", "--max-dim", "2", "--find-all"], SEARCH | {"gf2vec"}),
])
def test_verb_executes_only_its_modules(argv, executed, two_block_table, tmp_path):
    argv = [a.format(f=two_block_table, out=tmp_path / "out.tt") for a in argv]
    proc = fresh("-c", "import sys\nfrom bentfn.cli import main\n"
                 "assert main(sys.argv[1:]) == 0\n" + EXECUTED, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == executed


def test_module_entry_writes_nothing_to_stderr(two_block_table, tmp_path):
    proc = fresh("-m", "bentfn.cli", "analyze", two_block_table, cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n: 8\n")
    assert proc.stderr == ""
