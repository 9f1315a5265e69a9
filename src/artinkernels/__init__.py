"""Homology of Artin kernels of even FC-type Artin groups, exactly.

Given a finite labeled even graph and an integer character on its
vertices, the package computes the homology of the kernel subgroup as a
module over K[t^{+-1}]: free rank, invariant factors, and the cyclotomic
primary decomposition, by three mutually cross-checking methods (Smith
normal form, the multiplicity spectral sequence, and rooted spanning
forests), plus the reduced-complex free ranks in the resonant case.
"""

from .flag import FlagComplex, build_flag_complex, image_dims
from .graphs import (Character, GraphError, LabeledGraph, ResonanceSets,
                     ResonantVertexError, TorsionSupport, ZeroCharacterError,
                     connected_components, is_fc_type, resonance_sets,
                     torsion_support, validate_graph)
from .laurent import (CyclotomicField, LaurentPoly, ZeroPolynomialError, cyclotomic,
                      cyclotomic_field, q_poly)
from .resonant import (QuotientComplex, ReducedGraph, build_f2, build_gamma1,
                       h1_free_rank, h2_free_rank)
from .scalars import QQ, PrimeField, Rationals
from .smith import (ModuleDecomposition, ShapeReport, SmithForm, boundary_smith_form,
                    cyclotomic_invariant_factors, homology_module, homology_modules,
                    specialized_rank, verify_shape)
from .spectral import (DisconnectedGraphError, NegativeMultiplicityError, PageTable,
                       ResonantCharacterError, WeightedComplex,
                       forest_fitting_h1, page_dims, shared_page_tables,
                       solve_torsion, weighted_complex)
from .twisted import BoundaryTables, PolyMatrix, twisted_boundary

__version__ = "0.1.0"
