"""Polygon triangulations, sylvester classes, restricted flips and signings."""

from .triangulation import (
    Face,
    Triangulation,
    VertexRing,
    all_triangulations,
    canonical_key,
    ears,
    faces,
    is_simple,
    third_vertex,
    validate,
)
from .words import (
    abs_word,
    bar,
    block_coloring,
    delta_profile,
    destandardize,
    evaluation,
    standardize,
    sylvester_adjacent,
    sylvester_class,
)
from .phi import (
    canonical_reading,
    colored_readings,
    colored_triangulation_from_word,
    insert,
    insertion_trace,
    readings,
    triangulation_from_permutation,
)
from .flips import (
    DiagonalSigning,
    FlipQuad,
    diagonal_signing_from_faces,
    face_signs_from_diagonals,
    flip,
    flip_between,
    flip_characterization,
    homogeneous_neighbors,
    signed_flip,
    signed_flip_diagonal,
    switched_neighbors,
)
from .signing import (
    Certificate,
    SignedState,
    classify_step,
    emit_word_certificate,
    sign_path_diagonals,
    signable_path_search,
    validate_certificate,
)
from .heawood import (
    SphereTriangulation,
    four_color,
    glue,
    heawood_check,
    mirror_sphere,
    verify_coloring,
)
from .graphs import catalan

__version__ = "0.1.0"
