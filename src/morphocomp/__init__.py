"""Morphological-computation measures for discrete sensorimotor data."""

__version__ = "0.1.0"

from .estimation import Binner, SymbolSeries, estimate, joint_from_model
from .measures import (
    IntrinsicModel,
    action_prior,
    asoc_a,
    asoc_w,
    c_a,
    c_a_deliberative,
    c_w,
    cif,
    do_a,
    do_s,
    intrinsic_measures,
    mc_a,
    mc_w,
)
from .prob import (
    Alphabet,
    Distribution,
    Joint3,
    Kernel2,
    Kernel3,
    compose_joint,
    conditional_mutual_information,
    kl,
)

__all__ = [
    "Alphabet",
    "Binner",
    "Distribution",
    "IntrinsicModel",
    "Joint3",
    "Kernel2",
    "Kernel3",
    "SymbolSeries",
    "action_prior",
    "asoc_a",
    "asoc_w",
    "c_a",
    "c_a_deliberative",
    "c_w",
    "cif",
    "compose_joint",
    "conditional_mutual_information",
    "do_a",
    "do_s",
    "estimate",
    "intrinsic_measures",
    "joint_from_model",
    "kl",
    "mc_a",
    "mc_w",
]
