"""Decentralized saddle-point optimization over networks.

Gradient-tracking optimistic methods (dogt, adogt) and their non-tracking
baselines (dgda, dogda), plus the machinery to check the linear-convergence
theory numerically: mixing matrices and spectral gaps, accelerated gossip,
Lyapunov diagnostics, and inequality checkers.
"""

from .algorithms import (ALGORITHMS, DivergenceError, Trace, adogt_step, dgda_step,
                         dogda_step, dogt_step, run)
from .graph import (DisconnectedGraphError, MixingMatrix, Topology,
                    accelerated_matrix, acceleration_momentum, build_topology,
                    lazy_max_degree_weights, metropolis_weights, spectral_gap)
from .metrics import (RateReport, consensus_error, fit_linear_rate,
                      iteration_complexity, lyapunov_coefficients, max_stepsize,
                      metric_record, optimality_gap_xi, residual,
                      theoretical_contraction)
from .problem import BilinearQuadratic, make_bilinear_quadratic, stacked_gradient_field
from .verify import LEMMA_IDS, LemmaCheckReport, check_lemma, check_rho_M, run_all_checks

__version__ = "0.1.0"
