"""Numerical library for the mu-synthesis domain family: symmetrized bidisc,
tetrablock, pentablock and hexablock."""

from .numerics import (TOL, BlaschkeProduct, ConsistencyError, DiscAut,
                       DomainError, Mat2, Poly, fejer_riesz, lift_point,
                       matricial_mobius, op_norm, pi_gamma, pi_hexa, pi_penta,
                       pi_tetra, poly_reflect, singular_values,
                       spectral_radius, upper_tri_contraction)
from .psi import (MaximizerResult, Phi_eval, Psi_eval, betas, k_star,
                  k_star_closed, kappa_eval, maximizer, psi_eval, sup_on_bE,
                  tetra_interior_margin)
from .domains import (Region, RegionVerdict, diamond, embed_biball, embed_g2,
                      embed_penta, embed_tetra, g2_classify, penta_classify,
                      penta_hn_witness, retract_g2, retract_penta,
                      retract_tetra, tau_of, tetra_classify)
from .hexa import (HexaVerdict, bh_member, classify_boundary, classify_hexa,
                   h_member, hartogs_u, hmu_closure_member, hmu_member,
                   hn_member, hn_params, hp_param, mu_value, psi_sup)
from .oracles import GridSpec, grid_sup_kappa, grid_sup_psi, mu_bruteforce, \
    tetra_definitional
from .autos import (HexaAut, TetraAut, hexa_aut_apply, hexa_aut_compose,
                    hexa_aut_from_be_point, hexa_aut_invert, penta_aut_apply,
                    tetra_aut_apply, tetra_aut_invert)
from .inner import (RationalHexaInner, RationalPentaInner,
                    RationalTetraInner, SchwarzProblem, hexa_inner_construct,
                    hexa_inner_to_penta, hexa_inner_validate,
                    interpolation_residuals, penta_inner_to_hexa,
                    penta_schwarz_feasible, rational_inner_outer,
                    schwarz_construct, schwarz_feasible, tetra_inner_validate)
from .realslice import (K_real, dE_part_classify, face_classify,
                        hessian_probe_K, penta_real_sets, real_h_member,
                        rho_and_levi)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
