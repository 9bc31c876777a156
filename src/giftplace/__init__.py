"""giftplace: graph-filter placement initialization and a toy analytical placer.

The pipeline: parse a Bookshelf design, expand nets into a weighted clique
graph, low-pass filter a noisy center-seeded placement signal through powered
augmented normalized adjacencies, and (optionally) feed the result to a
gradient-descent placer. A dense spectral toolkit backs the whole thing up
for verification at small n.
"""

from .benchgen import generate
from .errors import (
    DanglingPinError,
    DegenerateSpectrumWarning,
    DimensionMismatchError,
    DivergenceError,
    DuplicateCellError,
    GiftPlaceError,
    IsolatedNodeError,
    MalformedLineError,
    MissingFileError,
    TooLargeForDenseError,
    ZeroSignalError,
)
from .gift import DEFAULT_TERMS, GiftConfig, gift_filter, gift_place, initial_signal
from .graph import (
    DENSE_LIMIT,
    FilterTerm,
    SparseSymMatrix,
    build_clique_graph,
    identity_minus,
    laplacian,
    normalized_augmented_adjacency,
)
from .metrics import (
    DensityGrid,
    GridConfig,
    default_bins,
    density_map,
    hpwl,
    max_bin_density,
    overflow,
    quadratic_wirelength,
    rayleigh_smoothness,
    report,
)
from .netlist import (
    Design,
    Region,
    Row,
    aux_files,
    parse_design,
    read_placement,
    write_design,
    write_placement,
)
from .placer import (
    PlacerConfig,
    PlacerTrace,
    TraceRecord,
    balanced_lambda0,
    electrostatic_grad,
    run_placer,
    smooth_wirelength_grad,
)
from .spectral import (
    eigendecompose,
    eigenvector_placement,
    filter_response,
    taylor_gap,
)

__version__ = "0.1.0"
