"""Exact-arithmetic orthogonality graphs over finite fields.

Construction of the projective and all-vectors orthogonality graphs,
exact verification of their square-of-adjacency identity, exact counting
of k-tuples of mutually orthogonal vectors (ordered copies of K_k), and a
seeded experiment harness comparing observed counts against closed-form
predictions.
"""

from .asymptotics import (
    CountReport,
    ExperimentConfig,
    compare_thresholds,
    mix_seed,
    predict_copy_count,
    predict_tuple_count,
    run_experiment,
    sample_subset,
    splitmix64,
    threshold_new,
    threshold_old,
    validity_margin,
)
from .counting import VertexSubset, count_ordered_tuples
from .errors import BoundExceededError, OrthocountError
from .fields import Field, field_from_order, make_field
from .graphs import (
    OrthoGraph,
    build_affine_graph,
    build_projective_graph,
    export_graph,
)
from .spectral import (
    IdentityReport,
    SpectralProfile,
    predicted_spectrum,
    verify_square_identity,
)
from .vectors import format_vector, parse_vector, projective_representatives

__version__ = "0.1.0"
