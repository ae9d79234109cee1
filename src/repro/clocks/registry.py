"""Registry of causality mechanisms, keyed by name.

Benchmarks, examples and the workload-replay harness refer to mechanisms by
short names ("dvv", "server_vv", "client_vv[size<=10]", ...) so a single
command-line flag or parameter sweep can select which mechanism a run uses.
The registry maps those names to factory callables.  Factories (rather than
instances) are registered because some mechanisms carry per-run mutable state
(e.g. a pruned client VV counts how much it pruned).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..core.exceptions import ConfigurationError
from .causal_history_mechanism import CausalHistoryMechanism
from .client_vv import ClientVVMechanism
from .dvv_mechanism import DVVMechanism
from .dvvset_mechanism import DVVSetMechanism
from .interface import CausalityMechanism
from .pruning import PrunedClientVVMechanism
from .server_vv import ServerVVMechanism
from .vve_mechanism import DottedVVEMechanism

MechanismFactory = Callable[[], CausalityMechanism]

_REGISTRY: Dict[str, MechanismFactory] = {}


def register(name: str, factory: MechanismFactory, overwrite: bool = False) -> None:
    """Register a mechanism factory under ``name``.

    Raises :class:`~repro.core.exceptions.ConfigurationError` when the name is
    already taken and ``overwrite`` is false, so typos in benchmark setups fail
    loudly instead of silently replacing a mechanism.
    """
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"mechanism {name!r} is already registered")
    _REGISTRY[name] = factory


def create(name: str) -> CausalityMechanism:
    """Instantiate a fresh mechanism by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown mechanism {name!r}; known: {known}") from None
    return factory()


def available() -> List[str]:
    """Names of every registered mechanism, sorted."""
    return sorted(_REGISTRY)


def _register_defaults() -> None:
    register("dvv", DVVMechanism)
    register("dvvset", DVVSetMechanism)
    register("server_vv", ServerVVMechanism)
    register("client_vv", ClientVVMechanism)
    register("causal_history", CausalHistoryMechanism)
    register("dotted_vve", DottedVVEMechanism)
    for threshold in (5, 10, 20):
        register(
            f"client_vv_pruned_{threshold}",
            lambda threshold=threshold: PrunedClientVVMechanism(threshold),
        )


_register_defaults()
