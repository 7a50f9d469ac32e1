"""Relations, sorted relations, and synthetic dataset generators."""

from .generators import (
    ACADEMY_AWARDS,
    JOE_PESCI,
    ROBERT_DE_NIRO,
    FreebaseConfig,
    freebase_database,
    random_relation,
    twitter_database,
    twitter_graph,
)
from .relation import Database, Relation
from .sorted import SortedRelation

__all__ = [
    "ACADEMY_AWARDS",
    "Database",
    "FreebaseConfig",
    "JOE_PESCI",
    "ROBERT_DE_NIRO",
    "Relation",
    "SortedRelation",
    "freebase_database",
    "random_relation",
    "twitter_database",
    "twitter_graph",
]
