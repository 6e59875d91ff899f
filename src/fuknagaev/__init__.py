"""Fuk-Nagaev concentration bounds for heavy-tailed martingales in
(2,D)-smooth Banach spaces, with exact constants and Monte Carlo
verification of every bound and derivation step at desk scale.

The package splits into:

- ``spaces``     finite-dimensional smooth-space stand-ins and certificates
- ``stochastic`` increment samplers, martingales, truncation, moment
                 accounting, exponential-moment and moment-interpolation
                 checks
- ``quantile``   quantile / CVaR / Chernoff-quantile calculus
- ``legendre``   inverse Legendre transform and the constant derivation
- ``bounds``     the user-facing bound formulas
- ``verify``     Monte Carlo coverage campaigns with Clopper-Pearson
                 certificates
- ``cli``        the ``fuknagaev`` command-line entry point
"""

from .spaces import (SmoothSpace, make_euclidean, make_lp,
                     smoothness_certificate)
from .stochastic import (CoordinateTerm, DiscreteNormLaw, IncrementDistribution,
                         MomentProfile, SeparableFunction, doob_martingale,
                         gaussian, moment_profile, norm_moment, pinelis_check,
                         pinelis_supermartingale_profile, rademacher,
                         rio_moment_check, running_max_ensemble,
                         sample_increments, student_t, symmetric_pareto,
                         uniform_cube)
from .quantile import (EmpiricalSample, cvar_q1, load_sample, make_sample,
                       q_infinity, quantile_lemma_suite, quantile_q,
                       quantile_triple)
from .legendre import (CgfPieces, ProofChainReport, bercu_infimum, cgf_pieces,
                       inverse_legendre, log_poly_check, proof_chain,
                       psi_tail, quadratic_closed_form, rio36_check,
                       truncation_error_bound)
from .bounds import (BoundResult, HolderSpec, confidence_bound, constant_c,
                     holder_constants, independent_sum_bound, mcdiarmid_bound,
                     tail_bound)
from .verify import (CampaignConfig, VerificationReport, clopper_pearson_upper,
                     crossover_scan, tightness, verify_confidence)

__version__ = "0.1.0"
