"""Model containers (paper §4.4): the narrow-waist batch prediction interface."""

from repro.containers.base import ModelContainer, FunctionContainer
from repro.containers.busy import DeviceBoundContainer
from repro.containers.chaos import KillableContainer, TrackingFactory
from repro.containers.noop import NoOpContainer
from repro.containers.adapters import ClassifierContainer
from repro.containers.overhead import LanguageOverheadContainer
from repro.containers.replica import ContainerReplica, Replica, place_locally

__all__ = [
    "ModelContainer",
    "FunctionContainer",
    "DeviceBoundContainer",
    "KillableContainer",
    "TrackingFactory",
    "NoOpContainer",
    "ClassifierContainer",
    "LanguageOverheadContainer",
    "ContainerReplica",
    "Replica",
    "place_locally",
]
