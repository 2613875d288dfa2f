"""Exact Laplacian spectra, homology with torsion, and torsion-weighted
spanning tree enumeration for chain complexes, cubical complexes, and
complete colorful complexes.  Everything is integer or rational
arithmetic; floating point never decides a result."""

from .chain import (ChainComplex, ChainError, HomologySummary, SpectrumGF,
                    alternating_ud_holds, euler_identity_holds,
                    tot_split_holds, ud_du_shift_holds)
from .colorful import (colorful_complex, colorful_etot, colorful_omega,
                       colorful_spec_poly, colorful_tree_count,
                       cross_polytope_cube_duality, weighted_duality_check)
from .cubical import (CubicalComplex, cube, mirror, shifted_spectrum,
                      weighted_total_laplacian)
from .exact import (IntPoly, LaurentPoly, NotIntegral, SparseMatrix,
                    char_poly, det_exact, gen_binom, rank_exact, smith_normal_form)
from .trees import (CapExceeded, TreeQuery, TreeReport, is_cst, run_query,
                    tau_cube_closed_form, verify_conjecture)
from .verify import SUITES, Check

__version__ = "0.1.0"

__all__ = [
    "ChainComplex", "ChainError", "HomologySummary", "SpectrumGF",
    "alternating_ud_holds", "euler_identity_holds", "tot_split_holds",
    "ud_du_shift_holds",
    "colorful_complex", "colorful_etot", "colorful_omega",
    "colorful_spec_poly", "colorful_tree_count",
    "cross_polytope_cube_duality", "weighted_duality_check",
    "CubicalComplex", "cube", "mirror", "shifted_spectrum",
    "weighted_total_laplacian",
    "IntPoly", "LaurentPoly", "NotIntegral", "SparseMatrix",
    "char_poly", "det_exact", "gen_binom", "rank_exact", "smith_normal_form",
    "CapExceeded", "TreeQuery", "TreeReport", "is_cst", "run_query",
    "tau_cube_closed_form", "verify_conjecture",
    "SUITES", "Check",
]
