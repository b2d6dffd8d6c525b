"""Bit-exact coded caching over two-hop relay networks with resolvable designs.

The library builds resolvable topologies (combination networks, affine
planes, custom designs), runs three cache-aided delivery schemes plus a
per-file broadcast fallback on real byte buffers, verifies decoding
bit-exactly, and checks measured link rates against closed-form rates with
exact rational arithmetic.
"""

from .combinatorics import binomial, enumerate_subsets, position_in
from .erasure import ErasureCode, decode, encode, make_code, xor_bytes
from .harness import (
    EXHAUSTIVE_CAP,
    SCHEME_IDS,
    ComparisonRatios,
    Envelope,
    RatePoint,
    SchemeReport,
    VerificationReport,
    achievable_rate,
    auto_file_bytes,
    binary_entropy_nats,
    comparison_ratios,
    formula_rates,
    memory_sharing_envelope,
    run_scheme,
    run_scheme_with_log,
    verify_all_demands,
)
from .schemes import (
    BudgetError,
    FileLibrary,
    GridError,
    IncompleteReceptionError,
    PlannedCache,
    PrefixCache,
    SubpacketizationError,
    TransmissionLog,
    all_demands,
    broadcast_decode,
    broadcast_mds_deliver,
    broadcast_place,
    cmcnc_decode,
    cmcnc_deliver,
    cmcnc_place,
    distinct_demand,
    proposed_decode,
    proposed_deliver,
    proposed_place,
    random_demand,
    random_library,
    routing_decode,
    routing_deliver,
    uniform_demand,
)
from .topology import (
    Network,
    NotResolvableError,
    affine_plane,
    baranyai_partition,
    combination_network,
    custom_network,
    load_network,
    save_network,
)

__version__ = "0.1.0"
