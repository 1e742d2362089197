"""Exact integral cohomology of prime-order cyclic quotients.

Subpackages:

* intmat    -- arbitrary-precision integer matrices, Smith normal form,
               saturated kernels, the packed echelon elimination over Z/m
               behind mod-p ranks and discriminant groups
* profiles  -- Jordan profiles of order-p actions over F_p, and Sym^k of a
               permutation module in closed form
* lattices  -- integral lattices with prime-order isometries, the summand
               counts of the Z[G]-lattice, group cohomology, pushforward
               and glued overlattices
* k3        -- the prime-order K3 quotient tables and the Nikulin
               involution
* toric     -- fans, regular subdivisions, resolutions of isolated cyclic
               quotient singularities, closed cohomology tables
* engine    -- the spectral-sequence and quotient-cohomology calculator
* hilbert   -- Hilbert schemes of points on K3 surfaces with natural
               prime-order actions: torsion, Betti and Beauville-Bogomolov
               tables of their quotients
* selftest  -- seeded randomized property suite
* cli       -- command-line front end: the parser, the output, and the
               hilbert and k3 commands
* tables    -- the tables command, the golden-table regression runner
* commands  -- the profile, lattice, quotient, toric and selftest commands

The layers load lazily (PEP 562): ``import quotcoh`` runs no submodule,
and ``quotcoh.X`` or ``from quotcoh import X`` imports the one submodule
that defines X on first use.  A CLI process therefore compiles only the
layers its command calls.
"""

from importlib import import_module

# every public name, with the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("IntMatrix", "image_basis", "kernel_saturated", "quotient_group", "rank_mod_p"),
        "intmat",
    ),
    **dict.fromkeys(("JordanProfile", "jordan_profile"), "profiles"),
    **dict.fromkeys(
        ("GLattice", "Lattice", "bns_invariants", "curtis_reiner_check", "discriminant",
         "discriminant_group", "group_cohomology", "invariants", "named_lattice",
         "overlattice_from_glue", "pushforward_quotient_lattice", "signature"),
        "lattices",
    ),
    **dict.fromkeys(
        ("Cone", "CyclicSingularity", "Fan", "betti_complete_smooth", "hj_resolution",
         "is_regular", "punctured_quotient_cohomology", "quotient_fan",
         "relative_quotient_cohomology", "resolve"),
        "toric",
    ),
    **dict.fromkeys(
        ("DegreeInvariants", "GradedInvariants", "QuotientReport", "alpha_even_bound",
         "degeneration_status", "e2_entry", "lefschetz_euler", "odd_alpha_pairs",
         "quotient_report", "u_dimensions"),
        "engine",
    ),
    **dict.fromkeys(("K3_TABLE", "k3_table", "nikulin_involution"), "k3"),
    **dict.fromkeys(
        ("bb_quotient", "betti_numbers", "betti_table", "fujiki_constant", "hilbert_report"),
        "hilbert",
    ),
}
_SUBMODULES = frozenset(("intmat", "profiles", "lattices", "k3", "toric", "engine", "hilbert",
                         "selftest", "cli", "tables", "commands"))

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
