"""`kzresidue.__all__` lists each public name once, and the package binds
exactly those names, each from the one module that defines it, on first
use."""
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import kzresidue

SUBMODULES = ("exactalg", "residues", "shapes", "solve", "verify")


def _run_child(code):
    """`code` in a fresh interpreter that writes no bytecode."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_has_no_duplicates_and_equals_the_imported_names():
    assert len(kzresidue.__all__) == len(set(kzresidue.__all__))
    assert set(kzresidue._EXPORTS) == set(SUBMODULES)
    kzresidue.Partition  # binds every name
    bound = {
        name for name, value in vars(kzresidue).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert bound == set(kzresidue.__all__)
    for module, names in kzresidue._EXPORTS.items():
        source = importlib.import_module(f"kzresidue.{module}")
        for name in names:
            value = vars(source)[name]
            assert getattr(kzresidue, name) is value
            # defined there, not re-exported from another module
            assert getattr(value, "__module__", source.__name__) == source.__name__, name


def test_import_binds_nothing_until_a_public_name_is_read():
    out = _run_child(
        "import sys\n"
        "import kzresidue\n"
        "print(sorted(m for m in sys.modules if m.startswith('kzresidue.')))\n"
        "print(sorted(set(vars(kzresidue)) & set(kzresidue.__all__)))\n"
        "print(sorted(set(kzresidue.__all__) - set(dir(kzresidue))))\n"
        "kzresidue.check_kz\n"
        "print(sorted(set(kzresidue.__all__) - set(vars(kzresidue))))\n"
    )
    # `dir` lists the public names before any is bound
    assert out.splitlines() == ["[]", "[]", "[]", "[]"]


def test_reading_a_module_name_binds_every_name():
    out = _run_child(
        "import kzresidue\n"
        "print(kzresidue.verify.__name__)\n"
        "print(sorted(set(kzresidue.__all__) - set(vars(kzresidue))))\n"
    )
    assert out.splitlines() == ["kzresidue.verify", "[]"]


def test_star_import_binds_every_public_name():
    out = _run_child(
        "from kzresidue import *\n"
        "import kzresidue\n"
        "print(sorted(set(kzresidue.__all__) - set(globals())))\n"
        "print(Partition is kzresidue.shapes.Partition)\n"
    )
    assert out.splitlines() == ["[]", "True"]


@pytest.mark.parametrize("name", ["cli", "no_such_name", "import_module"])
def test_any_other_name_is_missing(name):
    out = _run_child(
        "import kzresidue\n"
        f"print(hasattr(kzresidue, {name!r}), 'Partition' in vars(kzresidue))\n"
    )
    # `cli` is a submodule that only an import binds; a miss binds nothing
    assert out.split() == ["False", "False"]


def test_the_resource_guard_is_defined_in_shapes_and_read_from_solve():
    """The CLI prices requests from `shapes` alone; `solve` still holds
    every name of the guard, and `exactalg` lays out its keys for the
    same `MAX_VARS` and `EXPONENT_CAP`."""
    from kzresidue import exactalg, shapes, solve

    for name in ("DEFAULT_BUDGET", "MAX_VARS", "ResourceGuardError", "check_resources",
                 "level_boxes", "level_group_size", "residue_budget"):
        assert getattr(solve, name) is vars(shapes)[name], name
    assert exactalg.MAX_VARS is shapes.MAX_VARS
    assert exactalg.EXPONENT_CAP is shapes.EXPONENT_CAP
