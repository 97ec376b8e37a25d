"""The package namespace: every exported name resolves and is listed once."""
import ast
import importlib.util
import re
from pathlib import Path

import slpkit
import slpkit._primes
import slpkit.blockrec
import slpkit.embedding
import slpkit.exactmat
import slpkit.lefschetz

SRC = Path(slpkit.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
CONFTEST = Path(__file__).resolve().parent / "conftest.py"

# bindings no module uses, kept because perfbench/tests/test_tracing.py
# checks that the tracer patches them
PINNED_IMPORTS = {
    ("blockrec", "certified_rank"),
    ("blockrec", "rank_mod_p"),
    ("cli", "rank_mod_p"),
    ("lefschetz", "rank_mod_p"),
}


def test_every_export_resolves_once():
    names = slpkit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(slpkit, name)]
    assert missing == []
    for gone in (
        "rank",
        "max_rank_check",
        "BasisIndex",
        "block_pivot_rank",
        "enumerate_squarefree",
        "reduce",
        "revlex_compare",
        "revlex_sort_key",
        "squarefree_rank",
        "squarefree_unrank",
        "phi",
        "GF",
        "QQ",
        "ZZ",
        "_row_integerized",
        "Monomial",
        "HilbertVector",
        "CharProbe",
    ):
        assert gone not in names and not hasattr(slpkit, gone)
    assert importlib.util.find_spec("slpkit.monomials") is None
    for owner, gone in (
        (slpkit.ExactMatrix, "transpose"),
        (slpkit.ExactMatrix, "identity"),
        (slpkit.ExactMatrix, "domain"),
        (slpkit.AlgebraElement, "zero"),
        (slpkit.AlgebraElement, "linear"),
        (slpkit.AlgebraElement, "coefficient"),
        (slpkit.AlgebraElement, "scale"),
        (slpkit.AlgebraElement, "__add__"),
        (slpkit.AlgebraElement, "__neg__"),
        (slpkit.AlgebraElement, "__sub__"),
        (slpkit.AlgebraElement, "__mul__"),
        (slpkit.AlgebraElement, "power"),
        (slpkit.LinearForm, "element"),
        (slpkit.embedding, "phi"),
        (slpkit._primes, "next_prime"),
        (slpkit.exactmat, "GF"),
        (slpkit.exactmat, "QQ"),
        (slpkit.exactmat, "ZZ"),
        (slpkit.exactmat, "_row_integerized"),
    ):
        assert not hasattr(owner, gone), (owner, gone)


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        (path.stem, name)
        for path in modules
        for name in _unused_imports(ast.parse(path.read_text()))
    }
    assert unused == PINNED_IMPORTS


def test_readme_module_table_lists_every_public_module():
    table = set(re.findall(r"^\| `slpkit\.(\w+)` \|", README.read_text(), re.MULTILINE))
    modules = {p.stem for p in SRC.glob("*.py") if not p.name.startswith("_")}
    assert table == modules


def test_the_fixture_clears_every_memo_of_blockrec_embedding_and_lefschetz():
    # loaded by path: perfbench/tests has a conftest.py of its own
    spec = importlib.util.spec_from_file_location("slpkit_tests_conftest", CONFTEST)
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    # the memos each module defines, not those it imports from quotient
    memos = {
        f"{module.__name__}.{name}"
        for module in (slpkit.blockrec, slpkit.embedding, slpkit.lefschetz)
        for name, value in vars(module).items()
        if hasattr(value, "cache_clear") and value.__module__ == module.__name__
    }
    assert memos == {f"{memo.__module__}.{memo.__name__}" for memo in conftest.MEMOS}


def _call_time_imports(node, func=None):
    """(innermost function, statement) for each import statement inside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _call_time_imports(child, child.name)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            if func is not None:
                yield func, ast.unparse(child)
        else:
            yield from _call_time_imports(child, func)


def test_the_only_call_time_import_is_check_maps():
    # blockrec imports lefschetz, so check_map imports recursive_middle_rank
    # when it runs; perfbench's required span blockrec.recursive_middle_rank
    # pins that import until the benchmark revision (ROADMAP item 1a)
    found = [
        (path.stem, *imp)
        for path in sorted(SRC.glob("*.py"))
        for imp in _call_time_imports(ast.parse(path.read_text()))
    ]
    assert found == [("lefschetz", "check_map", "from .blockrec import recursive_middle_rank")]
