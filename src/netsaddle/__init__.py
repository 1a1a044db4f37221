"""Decentralized saddle-point optimization over networks.

Gradient-tracking optimistic methods (dogt, adogt) and their non-tracking
baselines (dgda, dogda), plus the machinery to check the linear-convergence
theory numerically: mixing matrices and spectral gaps, accelerated gossip,
Lyapunov diagnostics, and inequality checkers.
"""

from .algorithms import ALGORITHMS, DivergenceError, Trace, run
from .graph import (MixingMatrix, Topology, accelerated_matrix, build_topology,
                    lazy_max_degree_weights, metropolis_weights)
from .metrics import fit_linear_rate, max_stepsize, theoretical_contraction
from .problem import BilinearQuadratic, make_bilinear_quadratic
from .verify import LEMMA_IDS, check_lemma, run_all_checks

__version__ = "0.1.0"
