"""weylcheb: exact root systems, Chebyshev-like polynomial maps, and their
monodromy actions on preimage trees."""

from .rootsys import (
    AffineElement,
    Root,
    RootSystem,
    WeylElement,
    affine_apply,
    affine_compose,
    affine_identity,
    affine_inverse,
    build_root_system,
    orbit,
    reflection_element,
    translation_element,
    verify_axioms,
    weyl_group_elements,
)

__all__ = [
    "AffineElement",
    "Root",
    "RootSystem",
    "WeylElement",
    "affine_apply",
    "affine_compose",
    "affine_identity",
    "affine_inverse",
    "build_root_system",
    "orbit",
    "reflection_element",
    "translation_element",
    "verify_axioms",
    "weyl_group_elements",
]

__version__ = "0.1.0"
