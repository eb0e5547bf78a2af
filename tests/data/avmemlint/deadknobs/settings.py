"""Fixture: a settings dataclass with one live knob, one knob that is
only validated, and one that nothing mentions at all."""

from dataclasses import dataclass


@dataclass(frozen=True)
class FixtureConfig:
    fanout: int = 5
    hash_name: str = "mix64"
    legacy_mode: bool = False

    def __post_init__(self):
        if self.fanout <= 0:
            raise ValueError("fanout must be positive")
        if self.hash_name not in ("mix64", "affine64"):
            raise ValueError("unknown hash")

    def doubled(self) -> int:
        return 2 * self.fanout


@dataclass(frozen=True)
class Unlisted:
    """Not a configured settings class: never inspected."""

    ignored: int = 0
