"""DACPara core: configuration, partitioning, operators, driver."""

from ..config import (
    RewriteConfig,
    abc_rewrite_config,
    dacpara_config,
    dacpara_p1_config,
    dacpara_p2_config,
    gpu_config,
    iccad18_config,
)
from .dacpara import DACParaRewriter
from .partition import Shard, ShardPlan, node_dividing
from .prep_info import PrepInfo
from .validation import (
    ShardMergeStats,
    ValidationStats,
    validate_candidate,
    validate_shard_payload,
)

__all__ = [
    "RewriteConfig",
    "abc_rewrite_config",
    "dacpara_config",
    "dacpara_p1_config",
    "dacpara_p2_config",
    "gpu_config",
    "iccad18_config",
    "DACParaRewriter",
    "node_dividing",
    "Shard",
    "ShardPlan",
    "PrepInfo",
    "ShardMergeStats",
    "ValidationStats",
    "validate_candidate",
    "validate_shard_payload",
]
