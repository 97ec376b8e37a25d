"""The package namespace: every exported name resolves and is listed once."""
import ast
import importlib.util
import re
from pathlib import Path

import slpkit
import slpkit._primes
import slpkit.embedding
import slpkit.exactmat

SRC = Path(slpkit.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

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
