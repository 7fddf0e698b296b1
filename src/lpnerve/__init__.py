"""Filtered tuple nerves of finite generalized metric spaces.

Distances valued in [0, inf] with the +_p tensor family; nerves filtered
by birth grade; global persistence barcodes and localized (magnitude-style)
graded homology; metric and automaton diagnostics built on top.
"""

from .values import EPS, INF, BudgetExceededError, InputError, tensor, tensor_fold
from .vgraph import (GraphMorphism, VGraph, asymmetrize, check_morphism,
                     coequalizer, coproduct, delta_path, equalizer,
                     free_category, gamma_path, is_enriched_category, product,
                     validate)
from .nerve import FilteredComplex, enumerate_complex, membership_scale
from .chain import SieveSpec, boundary_matrix, generators_at
from .snf import smith_normal_form
from .homology import (Bar, Barcode, Coefficients, GF2, INTEGERS,
                       HomologySummary, homology_at, homology_table,
                       magnitude_homology, persistence_barcode, vr_oracle)
from .analysis import (InterpolationReport, h1_generators, interpolators,
                       is_ultrametric, p_critical)
from .automata import (Automaton, Transition, cost_primitive_pairs,
                       cost_space, strictify, word_cost)

__version__ = "0.1.0"
