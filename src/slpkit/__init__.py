"""Exact linear algebra for monomial complete intersections.

Multiplication matrices of powers of a linear form, strong Lefschetz
verdicts over Q and F_p, and the paper's proof as a rank route: induction
on square-free algebras, which reaches every other monomial complete
intersection through its embedding into a square-free one.
"""
from .quotient import (
    AlgebraElement,
    AlgebraSpec,
    basis_positions,
    graded_basis,
    hilbert_vector,
    multiply,
)
from .exactmat import (
    ExactMatrix,
    RankResult,
    block_assemble,
    certified_rank,
    determinant,
    mat_mul,
    rank_fraction_free,
    rank_mod_p,
    scale,
)
from .lefschetz import (
    LefschetzReport,
    LinearForm,
    MapCheck,
    MultiplicationMatrix,
    build_matrix,
    char_search,
    check_map,
    full_pairs,
    middle_pairs,
    slp_check,
)
from .blockrec import (
    BlockDecomposition,
    decompose,
    recursive_middle_rank,
)
from .embedding import (
    DegreeRankRecord,
    EmbeddedMapCheck,
    EmbeddingSpec,
    KernelDimsRecord,
    SocleImageRecord,
    TransferRecord,
    phi_matrix,
    phi_monomial,
    transfer_slp,
    verify_kernel_dims,
    verify_socle_image,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraSpec",
    "BlockDecomposition",
    "DegreeRankRecord",
    "EmbeddedMapCheck",
    "EmbeddingSpec",
    "ExactMatrix",
    "KernelDimsRecord",
    "LefschetzReport",
    "LinearForm",
    "MapCheck",
    "MultiplicationMatrix",
    "RankResult",
    "SocleImageRecord",
    "TransferRecord",
    "basis_positions",
    "block_assemble",
    "build_matrix",
    "certified_rank",
    "char_search",
    "check_map",
    "decompose",
    "determinant",
    "full_pairs",
    "graded_basis",
    "hilbert_vector",
    "mat_mul",
    "middle_pairs",
    "multiply",
    "phi_matrix",
    "phi_monomial",
    "rank_fraction_free",
    "rank_mod_p",
    "recursive_middle_rank",
    "scale",
    "slp_check",
    "transfer_slp",
    "verify_kernel_dims",
    "verify_socle_image",
]
