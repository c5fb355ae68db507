"""Node runtime and transport: Q/CN/DP/VN roles as simulated concurrent
nodes, the full query pipeline, query parsing, and experiment drivers."""

from .topology import Topology
from .queryparse import parse_query, Query
from .pipeline import run_query

__all__ = ["Topology", "parse_query", "Query", "run_query"]
