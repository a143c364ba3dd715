"""Workloads: microbenchmarks and synthetic SPLASH-2 application models."""

from repro.workloads.base import LOCK_KINDS, LockSet, Workload
from repro.workloads.micro import (
    CollocatedCriticalSection,
    ContendedCounter,
    NullCriticalSection,
)
from repro.workloads.splash import (
    APP_MODELS,
    APP_ORDER,
    AppModel,
    SyntheticApp,
    make_app,
)

__all__ = [
    "APP_MODELS",
    "APP_ORDER",
    "AppModel",
    "CollocatedCriticalSection",
    "ContendedCounter",
    "LOCK_KINDS",
    "LockSet",
    "NullCriticalSection",
    "SyntheticApp",
    "Workload",
    "make_app",
]
