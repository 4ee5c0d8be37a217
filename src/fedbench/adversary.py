"""Client-corruption wrappers used by the robustness tests.

Attacks operate on the delta relative to the round's global weights so that
"scale" is meaningful regardless of weight magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

Array = np.ndarray

ADVERSARY_KINDS = ("none", "scale", "random")


@dataclass
class AdversarySpec:
    kind: str = "none"
    scale_factor: float = 1.0
    affected_clients: frozenset[int] = field(default_factory=frozenset)

    def validate(self, num_clients: int | None = None) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ConfigError(
                f"adversary.kind must be one of {ADVERSARY_KINDS}, got {self.kind!r}"
            )
        if self.kind != "none" and not self.affected_clients:
            raise ConfigError(f"adversary.clients must name a client for kind {self.kind!r}")
        if num_clients is not None and any(
            c < 0 or c >= num_clients for c in self.affected_clients
        ):
            raise ConfigError(
                f"adversary.clients must lie in [0, {num_clients}), "
                f"got {sorted(self.affected_clients)}"
            )


def corrupt(
    client_id: int,
    new_params: Array,
    spec: AdversarySpec,
    global_params: Array,
    rng: np.random.Generator,
) -> Array:
    """Apply the configured attack to one client's reply; untouched clients
    pass through unchanged."""
    if spec.kind == "none" or client_id not in spec.affected_clients:
        return new_params
    if spec.kind == "scale":
        return global_params + spec.scale_factor * (new_params - global_params)
    # random: replace the model with a seeded Gaussian vector
    return rng.standard_normal(global_params.shape, dtype=global_params.dtype)
