"""Exact fundamental solutions of the symmetric-group
Knizhnik-Zamolodchikov system, computed as iterated residues of factored
configuration forms, with a verification battery for every identity the
solutions are supposed to satisfy.

The public names are bound on first use (PEP 562): reading any one of
them, or one of the modules below, imports every module and binds every
name in one step.  So `import kzresidue.cli` compiles only the modules a
command runs, and a library user still imports the package once."""

__version__ = "0.1.0"

# each public name, under the module that defines it
_EXPORTS = {
    "exactalg": (
        "ContentPolynomial", "FactoredSum", "NonDivisibleError", "NormalizeError",
        "SparsePolynomial", "atom_str", "det_adjugate", "determinant",
        "discriminant_power", "normalize_factored", "t_atom", "z_atom",
    ),
    "residues": (
        "ScheduleError", "binom_int", "iterated_residue", "residue_at",
        "residue_plan",
    ),
    "shapes": (
        "DEFAULT_BUDGET", "DiagramStats", "Numbering", "Partition",
        "ResourceGuardError", "Tabloid", "act_transposition", "check_resources",
        "column_expansion", "diagram_stats", "enumerate_partitions",
        "hook_length_dim", "identity_tableau", "level_group_size",
        "level_profile", "perm_sign", "raise_row", "residue_budget",
        "standard_tableaux", "tabloids",
    ),
    "solve": (
        "DualMatrix", "FundamentalMatrix", "ReflectionSolution", "SolutionTable",
        "SpanError", "alternating_twist", "coordinates_in_specht_basis",
        "cycle_integral", "dual_matrix", "fundamental_solution",
        "interaction_form", "polytabloid_columns", "reflection_dual_solutions",
        "reflection_solutions", "solve_component", "solve_cycle",
        "symmetrized_tableau_form", "tableau_form",
    ),
    "verify": (
        "CheckReport", "check_det", "check_dual", "check_equivariance",
        "check_frobenius", "check_kz", "check_primitive", "check_rank",
        "check_reflection", "check_shape", "check_straightening",
        "quotient_coordinates", "run_suite",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    # any other name is missing, so `from kzresidue import cli` falls back
    # to importing the submodule and `hasattr` answers False
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        source = import_module(f"{__name__}.{module}")
        namespace.update((n, getattr(source, n)) for n in names)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
