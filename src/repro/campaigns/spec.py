"""Declarative campaign specifications and their work-unit expansion.

A :class:`CampaignSpec` describes one experiment sweep — a figure
regeneration or an ablation — as pure data: a base hardware
configuration plus a list of **variants** (field overrides on
:class:`~repro.amc.config.HardwareConfig`), matrix **families** from
:mod:`repro.workloads`, **sizes**, a **trial** count, a **mode**, and a
root **seed**. Everything is JSON-serializable, so a spec digests to a
stable content address, travels to worker processes untouched, and is
recorded verbatim in the artifact store's manifest.

``expand`` turns a spec into :class:`WorkUnit` objects — one per
(variant, family, size) cell — each carrying a content-addressed key
(hash of the spec digest plus the cell coordinates). Units are the
grain of scheduling, checkpointing, and resumption: a completed unit's
artifact is a pure function of its key, so re-running it is a no-op and
executing units in any order, on any number of workers, yields the same
store.

Determinism contract (enforced by ``tests/test_campaigns.py``)
--------------------------------------------------------------
Seeds derive from the unit's position, ``SeedSequence.spawn`` style:

- ``mode="trials"`` replays the exact child-generator stream of
  :func:`repro.analysis.accuracy.run_trials` — for size index ``i`` the
  unit advances ``SeedSequence(seed)`` past the ``3 * trials * i``
  children earlier sizes consumed (:func:`unit_seed_sequence`), so a
  campaign's records are **bit-identical** to the legacy single-process
  sweep loops (e.g. ``benchmarks/bench_fig7_variation.py``), per family,
  regardless of worker count, shard order, or resume boundaries;
- ``mode="rhs"`` derives each unit's generators from
  ``SeedSequence(seed, spawn_key=cell_coordinates)`` — a pure function
  of the unit key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.amc.config import HardwareConfig
from repro.devices.models import PAPER_G0_SIEMENS
from repro.devices.variations import (
    GaussianVariation,
    LognormalVariation,
    NoVariation,
    RelativeGaussianVariation,
)
from repro.errors import CampaignError

__all__ = [
    "BASE_HARDWARE",
    "CampaignSpec",
    "HardwareVariant",
    "WorkUnit",
    "apply_overrides",
    "decode_variation",
    "expand",
    "unit_seed_sequence",
]

#: Named base configurations a spec can start from (same names as the
#: CLI's ``--hardware`` choices).
BASE_HARDWARE = {
    "ideal": HardwareConfig.ideal,
    "ideal-mapping": HardwareConfig.paper_ideal_mapping,
    "variation": HardwareConfig.paper_variation,
    "interconnect": HardwareConfig.paper_interconnect,
}

#: Campaign execution modes.
MODES = ("trials", "rhs")

#: Variation-model codec: overriding ``programming.variation`` swaps the
#: model class, so the override value is ``{"kind": ..., <params>}``.
VARIATION_KINDS = {
    "none": NoVariation,
    "gaussian": GaussianVariation,
    "relative_gaussian": RelativeGaussianVariation,
    "lognormal": LognormalVariation,
}

#: Convenience: specs reference the paper's G0 without re-stating it.
PAPER_G0 = PAPER_G0_SIEMENS


def decode_variation(payload: dict):
    """Build a variation model from its JSON codec form."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise CampaignError(
            f"variation override must be {{'kind': ..., params}}, got {payload!r}"
        )
    kind = payload["kind"]
    if not isinstance(kind, str) or kind not in VARIATION_KINDS:
        raise CampaignError(
            f"unknown variation kind {kind!r}; available: {sorted(VARIATION_KINDS)}"
        )
    params = {k: v for k, v in payload.items() if k != "kind"}
    try:
        return VARIATION_KINDS[kind](**params)
    except (TypeError, ValueError) as exc:
        raise CampaignError(f"variation {kind!r}: {exc}") from None


def _check_field(obj, head: str, path: str) -> None:
    if not dataclasses.is_dataclass(obj) or head not in {
        f.name for f in dataclasses.fields(obj)
    }:
        raise CampaignError(
            f"override path {path!r} does not resolve on {type(obj).__name__}"
        )


def _check_override(config: HardwareConfig, path: str, value) -> None:
    """Refuse an override whose path names no config field, or whose
    variation payload the codec cannot decode. Value ranges are the
    config's own checks, made when a variant is resolved."""
    obj = config
    for head in path.split("."):
        _check_field(obj, head, path)
        obj = getattr(obj, head)
    if head == "variation":
        decode_variation(value)


def _replace_path(obj, path: str, value):
    head, _, rest = path.partition(".")
    _check_field(obj, head, path)
    if rest:
        value = _replace_path(getattr(obj, head), rest, value)
    elif head == "variation":
        value = decode_variation(value)
    return dataclasses.replace(obj, **{head: value})


def apply_overrides(config: HardwareConfig, overrides: dict) -> HardwareConfig:
    """Apply dotted-path field overrides to a (nested, frozen) config.

    ``{"opamp.open_loop_gain": 1e5}`` rebuilds the op-amp dataclass with
    the new gain; ``{"programming.variation": {"kind": "gaussian",
    "sigma": 5e-6}}`` swaps the variation model through the codec.
    Overrides apply in sorted-path order so the result is independent of
    dict insertion order.
    """
    for path in sorted(overrides):
        config = _replace_path(config, path, overrides[path])
    return config


@dataclass(frozen=True)
class HardwareVariant:
    """One point of a spec's hardware grid: a label plus field overrides."""

    label: str
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise CampaignError(f"variant label must be a string, got {self.label!r}")
        if not isinstance(self.overrides, dict) or not all(
            isinstance(path, str) for path in self.overrides
        ):
            raise CampaignError(
                f"variant {self.label!r}: overrides must map dotted paths "
                f"to values, got {self.overrides!r}"
            )

    def resolve(self, base: str) -> HardwareConfig:
        """Build the concrete config: base factory plus this variant."""
        if base not in BASE_HARDWARE:
            raise CampaignError(
                f"unknown base hardware {base!r}; available: {sorted(BASE_HARDWARE)}"
            )
        return apply_overrides(BASE_HARDWARE[base](), self.overrides)


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _is_int(value) -> bool:
    """An integer, and not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _names(value, key: str) -> tuple:
    """A non-empty list of strings, as a tuple."""
    if not isinstance(value, (list, tuple)) or not value:
        raise CampaignError(f"{key} must be a non-empty list, got {value!r}")
    for item in value:
        if not isinstance(item, str):
            raise CampaignError(f"{key} must hold strings, got {item!r}")
    return tuple(value)


def _variant(value) -> HardwareVariant:
    if isinstance(value, HardwareVariant):
        return value
    if not isinstance(value, dict) or "label" not in value:
        raise CampaignError(
            f"a variant must be {{'label': ..., 'overrides': ...}}, got {value!r}"
        )
    unknown = set(value) - {"label", "overrides"}
    if unknown:
        raise CampaignError(f"unknown variant keys {sorted(unknown)}")
    return HardwareVariant(**value)


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative experiment campaign.

    Parameters
    ----------
    name:
        Campaign identifier (also the default store directory name).
    title:
        Human-readable description (which figure/ablation this is).
    mode:
        ``"trials"`` — Monte-Carlo sweep: per unit, ``trials`` fresh
        (matrix, b, hardware-seed) draws through the trial-batched
        engine, replaying the legacy ``run_trials`` stream bit-exactly.
        ``"rhs"`` — serving-style sweep: per unit, one matrix and
        ``trials`` right-hand sides through the prepared-solver cache's
        multi-RHS path (lean results).
    solvers:
        Solver kinds (keys of :data:`repro.serve.SOLVER_KINDS`), in
        record order.
    families:
        Matrix families (keys of
        :data:`repro.workloads.traffic.TRAFFIC_FAMILIES`).
    sizes:
        Matrix sizes; order defines each size's seed-stream offset.
    trials:
        Monte-Carlo trials (or right-hand sides) per unit.
    seed:
        Root seed of the whole campaign.
    hardware:
        Base configuration name (key of :data:`BASE_HARDWARE`).
    variants:
        Hardware grid points. An empty tuple means one unlabeled
        variant with no overrides.
    """

    name: str
    title: str = ""
    mode: str = "trials"
    solvers: tuple = ("original-amc", "blockamc-1stage")
    families: tuple = ("wishart",)
    sizes: tuple = (8, 16, 32)
    trials: int = 3
    seed: int = 0
    hardware: str = "variation"
    variants: tuple = ()

    def __post_init__(self):
        from repro.serve.cache import SOLVER_KINDS
        from repro.workloads.traffic import TRAFFIC_FAMILIES

        if not isinstance(self.name, str) or not self.name:
            raise CampaignError(f"name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.title, str):
            raise CampaignError(f"title must be a string, got {self.title!r}")
        if self.mode not in MODES:
            raise CampaignError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.hardware, str) or self.hardware not in BASE_HARDWARE:
            raise CampaignError(
                f"unknown base hardware {self.hardware!r}; "
                f"available: {sorted(BASE_HARDWARE)}"
            )
        solvers = _names(self.solvers, "solvers")
        for solver in solvers:
            if solver not in SOLVER_KINDS:
                raise CampaignError(
                    f"unknown solver kind {solver!r}; available: {sorted(SOLVER_KINDS)}"
                )
        families = _names(self.families, "families")
        for family in families:
            if family not in TRAFFIC_FAMILIES:
                raise CampaignError(
                    f"unknown family {family!r}; available: {sorted(TRAFFIC_FAMILIES)}"
                )
        if not isinstance(self.sizes, (list, tuple)) or not self.sizes:
            raise CampaignError(f"sizes must be a non-empty list, got {self.sizes!r}")
        for size in self.sizes:
            if not _is_int(size) or size < 1:
                raise CampaignError(f"sizes must be integers >= 1, got {size!r}")
        if not _is_int(self.trials) or self.trials < 1:
            raise CampaignError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise CampaignError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.variants, (list, tuple)):
            raise CampaignError(f"variants must be a list, got {self.variants!r}")
        variants = tuple(
            _variant(v) for v in (self.variants or (HardwareVariant("base"),))
        )
        labels = [v.label for v in variants]
        if len(set(labels)) != len(labels):
            raise CampaignError(f"variant labels must be unique, got {labels}")
        base = BASE_HARDWARE[self.hardware]()
        for variant in variants:
            for path, value in variant.overrides.items():
                _check_override(base, path, value)
        object.__setattr__(self, "variants", variants)
        object.__setattr__(self, "solvers", solvers)
        object.__setattr__(self, "families", families)
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))

    # ------------------------------------------------------------------
    # serialization and content addressing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "title": self.title,
            "mode": self.mode,
            "solvers": list(self.solvers),
            "families": list(self.families),
            "sizes": list(self.sizes),
            "trials": self.trials,
            "seed": self.seed,
            "hardware": self.hardware,
            "variants": [
                {"label": v.label, "overrides": dict(v.overrides)}
                for v in self.variants
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        A malformed payload raises :class:`CampaignError`, never a bare
        ``TypeError``/``KeyError``/``ValueError``.
        """
        if not isinstance(payload, dict):
            raise CampaignError(
                f"campaign spec must be an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise CampaignError(f"unknown campaign spec keys {sorted(unknown)}")
        if "name" not in payload:
            raise CampaignError("campaign spec has no name")
        return cls(**payload)

    def digest(self) -> str:
        """Stable content digest of the full spec (SHA-256 hex).

        Two specs share a digest iff every parameter that affects the
        produced artifacts is equal, so a store can refuse resumption
        under a different spec.
        """
        return hashlib.sha256(_canonical_json(self.to_dict()).encode()).hexdigest()

    def resolve_hardware(self, variant_index: int) -> HardwareConfig:
        """Concrete :class:`HardwareConfig` of one grid point."""
        return self.variants[variant_index].resolve(self.hardware)


@dataclass(frozen=True)
class WorkUnit:
    """One content-addressed cell of an expanded campaign.

    ``key`` is a pure function of (spec digest, variant, family, size),
    so an artifact store entry under this key can only ever hold this
    cell's results for this exact spec.
    """

    key: str
    variant_index: int
    variant_label: str
    family: str
    family_index: int
    size: int
    size_index: int

    def describe(self) -> str:
        """Short human-readable cell coordinates for logs and status."""
        return f"{self.variant_label}/{self.family}/n={self.size}"


def expand(spec: CampaignSpec) -> list[WorkUnit]:
    """Expand a spec into its work units (variant-major, stable order)."""
    digest = spec.digest()
    units = []
    for vi, variant in enumerate(spec.variants):
        for fi, family in enumerate(spec.families):
            for si, size in enumerate(spec.sizes):
                cell = _canonical_json(
                    {
                        "spec": digest,
                        "variant": variant.label,
                        "family": family,
                        "size": size,
                    }
                )
                key = hashlib.sha256(cell.encode()).hexdigest()[:32]
                units.append(
                    WorkUnit(
                        key=key,
                        variant_index=vi,
                        variant_label=variant.label,
                        family=family,
                        family_index=fi,
                        size=size,
                        size_index=si,
                    )
                )
    return units


def unit_seed_sequence(seed, size_index: int, trials: int) -> np.random.SeedSequence:
    """Seed stream positioned at a unit's offset in the legacy sweep.

    :func:`repro.analysis.accuracy.run_trials` consumes three children
    of ``SeedSequence(seed)`` per trial (matrix, right-hand side,
    hardware seed), walking sizes in order. Spawning past the
    ``3 * trials * size_index`` children of earlier sizes yields a
    sequence whose next children are exactly the ones the legacy loop
    would draw for this size — which is what makes campaign records
    bit-identical to the single-process sweeps, independent of unit
    execution order.
    """
    seq = np.random.SeedSequence(seed)
    skip = 3 * trials * size_index
    if skip:
        seq.spawn(skip)
    return seq
