"""The paper's contribution: protocol policies, prediction, delays.

This package holds the speculative decision layer (paper §3) that sits
alongside the MOESI protocol in :mod:`repro.coherence`.
"""

from repro.core.baseline import (
    AdaptiveBaselinePolicy,
    AggressiveBaselinePolicy,
    BaselinePolicy,
)
from repro.core.delayed import DelayedResponsePolicy, DelayedRetentionPolicy
from repro.core.iqolb import (
    GeneralizedIqolbPolicy,
    IqolbPolicy,
    IqolbRetentionPolicy,
)
from repro.core.policy import SUPPLY_NOW, DeferDecision, ProtocolPolicy
from repro.core.predictor import HeldLock, HeldLockTable, LockPredictor
from repro.core.qolb import QolbPolicy
from repro.core.registry import (
    PRIMITIVE_SPECS,
    PrimitiveSpec,
    get_primitive,
    make_policy,
    policy_class,
    policy_names,
    unknown_choice,
)

__all__ = [
    "AdaptiveBaselinePolicy",
    "AggressiveBaselinePolicy",
    "BaselinePolicy",
    "DeferDecision",
    "DelayedResponsePolicy",
    "DelayedRetentionPolicy",
    "GeneralizedIqolbPolicy",
    "HeldLock",
    "HeldLockTable",
    "IqolbPolicy",
    "IqolbRetentionPolicy",
    "LockPredictor",
    "PRIMITIVE_SPECS",
    "PrimitiveSpec",
    "ProtocolPolicy",
    "QolbPolicy",
    "SUPPLY_NOW",
    "get_primitive",
    "make_policy",
    "policy_class",
    "policy_names",
    "unknown_choice",
]
