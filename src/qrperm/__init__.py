"""Quasirandomness toolkit for arithmetic permutation families.

Interval discrepancy (exact, over the rationals), exponential sum
evidence, continued fraction machinery, rank-set analysis for Sos
permutations, and parameter scans over the classical families
psi / lambda / eta / rho.
"""

from .cfrac import (AverageCheck, ContinuedFraction, ZarembaResult,
                    bounded_average_check, cf_of_quadratic, cf_of_rational,
                    zaremba_search)
from .discrepancy import DiscrepancyReport, build_report, d_exact, d_star
from .errors import (AmbiguousOrderError, InvalidGeneratorError,
                     InvalidModulusError, NotAPermutationError,
                     NotAUnitError, QrpermError, SizeRefusedError)
from .expsums import (CompletionReport, SumValue, completion_check,
                      erdos_turan_bound, gauss_power_sum, incomplete_sigma_sum,
                      interval_fourier, kloosterman, max_incomplete_sum,
                      twisted_full_sum, w_sum, weyl_sum)
from .families import (Permutation, bit_reversal, eta_power, from_text,
                       identity_perm, invert, lambda_inv, psi, random_perm,
                       reversal_perm, rho_exp, sos_perm, to_text)
from .intervals import Interval, all_intervals
from .modular import (factorize, find_primitive_root, is_prime,
                      is_primitive_root, mod_inv, multiplicative_order)
from .qrstats import (EigenvalueStat, PropertyProfile, eigenvalue_stat,
                      pattern_count, property_profile,
                      restricted_pattern_count, restriction,
                      translation_stat)
from .quadirr import (QuadraticIrrational, alpha_label, floor_multiple,
                      floor_surd, frac_compare, frac_float, golden,
                      is_square_free, parse_alpha, sign_of_surd, sqrt_irr)
from .ranksets import (ASet, GapCheck, PrefixStar, a_set, b_sequence,
                       discrelation_holds, gap_check, max_prefix_star,
                       prefix_star_nums)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
