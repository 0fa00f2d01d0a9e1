"""Numerical library for the mu-synthesis domain family: symmetrized bidisc,
tetrablock, pentablock and hexablock.

The core layers (numerics, psi, domains, hexa, autos) load with the
package.  The brute-force oracles, the inner-function constructions and the
real slices load on first access to one of their names (PEP 562), so a
scalar classification or mu computation does not import them."""

from importlib import import_module as _import_module

from .numerics import (TOL, BlaschkeProduct, ConsistencyError, DiscAut,
                       DomainError, Mat2, Poly, fejer_riesz, lift_point,
                       matricial_mobius, op_norm, pi_gamma, pi_hexa, pi_penta,
                       pi_tetra, poly_reflect, singular_values,
                       spectral_radius, upper_tri_contraction)
from .psi import (MaximizerResult, Phi_eval, Psi_eval, betas, k_star,
                  k_star_closed, kappa_eval, maximizer, psi_eval, sup_on_bE,
                  tetra_interior_margin)
from .domains import (Region, RegionVerdict, bE_margin, diamond, embed_biball,
                      embed_g2, embed_penta, embed_tetra, g2_classify,
                      penta_classify, penta_hn_witness, penta_radii,
                      retract_g2, retract_penta, retract_tetra, tau_of,
                      tetra_classify, tetra_classify_batch)
from .hexa import (HexaVerdict, bh_member, classify_boundary, classify_hexa,
                   h_closure_batch, h_member, hartogs_u, hmu_closure_member,
                   hmu_member, hn_member, hn_params, hp_param, mu_value,
                   psi_sup)
from .autos import (HexaAut, TetraAut, hexa_aut_apply, hexa_aut_compose,
                    hexa_aut_from_be_point, hexa_aut_invert, penta_aut_apply,
                    tetra_aut_apply, tetra_aut_invert)

# the names of the lazily loaded submodules, by submodule
_LAZY = {
    "oracles": ("GridSpec", "grid_sup_kappa", "grid_sup_psi", "mu_bruteforce",
                "tetra_definitional"),
    "inner": ("RationalHexaInner", "RationalPentaInner", "RationalTetraInner",
              "SchwarzProblem", "hexa_inner_construct", "hexa_inner_to_penta",
              "hexa_inner_validate", "interpolation_residuals",
              "penta_inner_to_hexa", "penta_inner_validate",
              "penta_schwarz_feasible",
              "rational_inner_outer", "schwarz_construct", "schwarz_feasible",
              "tetra_inner_validate"),
    "realslice": ("K_real", "d2E_normal_form", "d3E_approach_sequence",
                  "dE_part_classify", "face_classify", "hessian_probe_K",
                  "levi_matrix", "penta_real_sets", "real_h_member",
                  "rho_and_levi", "rho_value"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        _import_module(f".{module}", __name__), name)
    return value


__all__ = [
    # numerics
    "TOL", "BlaschkeProduct", "ConsistencyError", "DiscAut", "DomainError",
    "Mat2", "Poly", "fejer_riesz", "lift_point", "matricial_mobius",
    "op_norm", "pi_gamma", "pi_hexa", "pi_penta", "pi_tetra", "poly_reflect",
    "singular_values", "spectral_radius", "upper_tri_contraction",
    # psi
    "MaximizerResult", "Phi_eval", "Psi_eval", "betas", "k_star",
    "k_star_closed", "kappa_eval", "maximizer", "psi_eval", "sup_on_bE",
    "tetra_interior_margin",
    # domains
    "Region", "RegionVerdict", "bE_margin", "diamond", "embed_biball",
    "embed_g2", "embed_penta", "embed_tetra", "g2_classify", "penta_classify",
    "penta_hn_witness", "penta_radii", "retract_g2", "retract_penta",
    "retract_tetra", "tau_of", "tetra_classify", "tetra_classify_batch",
    # hexa
    "HexaVerdict", "bh_member", "classify_boundary", "classify_hexa",
    "h_closure_batch", "h_member", "hartogs_u", "hmu_closure_member",
    "hmu_member", "hn_member", "hn_params", "hp_param", "mu_value", "psi_sup",
    # autos
    "HexaAut", "TetraAut", "hexa_aut_apply", "hexa_aut_compose",
    "hexa_aut_from_be_point", "hexa_aut_invert", "penta_aut_apply",
    "tetra_aut_apply", "tetra_aut_invert",
    # oracles, inner, realslice (loaded on first access)
    *_LAZY_NAMES,
]
__version__ = "0.1.0"
