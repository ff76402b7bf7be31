"""postrig: certified positivity of trigonometric and orthogonal-polynomial
sums, plus the special constants their sharp thresholds are built from."""

from .certify import (CertifyOptions, PositivityReport, ZeroBracketList,
                      bracket_zeros, certify_positive, find_min)
from .seqkit import (CoefficientSequence, CriterionReport, check_belov,
                     check_chain_condition, check_taper_ratio_condition,
                     check_vietoris, ck_sequence, koumandos_bk, qk_sequence,
                     ratio_qk_sequence, vietoris_gamma)
from .specfun import (SpecialConstant, alpha0, alpha0_prime, bessel_j,
                      bessel_zero, brent_root, expansion_fit, gamma_fn,
                      h_corr, hyp2f3, K_closed, lambda_prime, P_closed,
                      quad_singular)
from .trigeval import (TrigPolynomial, abel_resum, cosine_poly,
                       halfangle_product_negated_poly, lipschitz_bound,
                       shifted_poly, sine_poly)

__version__ = "0.1.0"
