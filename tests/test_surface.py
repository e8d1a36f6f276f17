"""The package's surface: every module-level function and class in
src/ncsos is reached from the package itself or exported, so code that only
tests keep alive lives with the tests."""

import ast
from pathlib import Path

import ncsos

# name -> why it stays in src/ncsos with no caller there
EXCEPTIONS = {
    "gram_to_poly": "the paper's map p = V* G V, used by scripts/scale_probe.py",
    "gram_bound_constant": "the paper's Gram-bound constant, used by scripts/fock_constants.py",
    "word_eval": "the word-by-word evaluation that tests compare poly_eval against",
    "matrix_to_json": "the inverse of matrix_from_json, which tests round-trip through",
}


def _unreached() -> set[str]:
    """The module-level functions and classes of src/ncsos, as module.name,
    whose name no other node of the package mentions (a call, an attribute
    or an import) and ncsos.__all__ does not list."""
    definitions, named = [], set(ncsos.__all__)
    for path in sorted(Path(ncsos.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        definitions += [f"{path.stem}.{node.name}" for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return {qual for qual in definitions if qual.split(".")[1] not in named}


def test_every_definition_is_reached_from_the_package():
    unreached = {qual for qual in _unreached() if qual.split(".")[1] not in EXCEPTIONS}
    assert unreached == set()


def test_each_exception_is_defined_and_unreached():
    # an exception that goes, or gains a caller in the package, leaves the list
    assert {qual.split(".")[1] for qual in _unreached()} >= set(EXCEPTIONS)


def test_the_memory_budget_and_the_operator_tolerance_each_have_one_home():
    # sdp.refuse_bytes alone reads MAX_BYTES and writes the GiB
    # refusal, and eval checks a tuple with the witness gate's tolerance:
    # no copy of the budget, and no second tolerance, comes back
    sources = {path.name: path.read_text() for path in Path(ncsos.__file__).parent.glob("*.py")}
    assert {name for name, text in sources.items() if "MAX_BYTES" in text} == {"sdp.py"}
    assert {name for name, text in sources.items() if "GiB" in text} == {"sdp.py"}
    assert not any("EPS_UNIT" in text for text in sources.values())
