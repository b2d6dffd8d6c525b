"""Placement/delivery/decode pipelines for all supported schemes."""

from .broadcast import (
    PrefixCache,
    broadcast_decode,
    broadcast_mds_deliver,
    broadcast_place,
)
from .cmcnc import SubsetCache, cmcnc_decode, cmcnc_deliver, cmcnc_place
from .common import (
    Batch,
    BudgetError,
    Edge,
    FileLibrary,
    GridError,
    IncompleteReceptionError,
    Record,
    SubpacketizationError,
    TransmissionLog,
    all_demands,
    distinct_demand,
    random_demand,
    random_library,
    uniform_demand,
    validate_demand,
)
from .proposed import (
    GroupedCache,
    proposed_decode,
    proposed_deliver,
    proposed_place,
)
from .routing import routing_decode, routing_deliver

__all__ = [
    "Batch",
    "BudgetError",
    "Edge",
    "FileLibrary",
    "GridError",
    "GroupedCache",
    "IncompleteReceptionError",
    "PrefixCache",
    "Record",
    "SubpacketizationError",
    "SubsetCache",
    "TransmissionLog",
    "all_demands",
    "broadcast_decode",
    "broadcast_mds_deliver",
    "broadcast_place",
    "cmcnc_decode",
    "cmcnc_deliver",
    "cmcnc_place",
    "distinct_demand",
    "proposed_decode",
    "proposed_deliver",
    "proposed_place",
    "random_demand",
    "random_library",
    "routing_decode",
    "routing_deliver",
    "uniform_demand",
    "validate_demand",
]
