"""`kzresidue.__all__` lists each name the package binds by import, once."""
import ast
from pathlib import Path

import kzresidue


def test_all_has_no_duplicates_and_equals_the_imported_names():
    init = Path(kzresidue.__file__)
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.parse(init.read_text(), str(init)).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert len(kzresidue.__all__) == len(set(kzresidue.__all__))
    assert set(kzresidue.__all__) == imported
