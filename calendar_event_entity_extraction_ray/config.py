"""Pipeline configuration.

Mirrors the reference's YAML config surface (configs/default.yaml:1-38,
configs/lora.yaml:1-18 — paths / processing / split knobs; the torch
training knobs have no equivalent here) as a dataclass with YAML loading
and the reference's merge behavior (later files override earlier ones,
reference src/train.py:52-60 ``load_config``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional


@dataclass
class EngineConfig:
    # data paths
    input_path: str = ""
    output_dir: str = "/tmp/kg_out"
    # pipeline knobs
    seed: int = 42
    n_synth: int = 1000
    num_partitions: int = 16
    batch_blocks_per_cpu: int = 2
    lang: str = "en"
    # split knobs (reference 75/15/10, augmentation/main.py:176-183)
    split_props: List[float] = field(default_factory=lambda: [0.75, 0.15])
    # linking
    jaccard_threshold: float = 0.5
    top_k_pools: int = 500
    # exchange spill location for multi-node runs: a directory every node
    # mounts (NFS / fused object store). Empty -> $CEE_SPILL_ROOT if set,
    # else node-local tempdir (single-node only). See stages/exchange.py.
    spill_root: str = ""

    def apply_spill_root(self) -> None:
        """Export spill_root so stages/exchange.py picks it up (workers see
        the path captured in the spill closure, not the env)."""
        if self.spill_root:
            import os

            os.environ["CEE_SPILL_ROOT"] = self.spill_root

    @classmethod
    def load(cls, *paths: str, overrides: Optional[Dict[str, Any]] = None) -> "EngineConfig":
        """Merge YAML files left-to-right, then apply overrides."""
        merged: Dict[str, Any] = {}
        for p in paths:
            try:
                import yaml

                with open(p) as f:
                    data = yaml.safe_load(f) or {}
            except ImportError:  # pragma: no cover - yaml ships with ray
                import json

                with open(p) as f:
                    data = json.load(f)
            if isinstance(data, dict):
                merged.update(data)
        if overrides:
            merged.update(overrides)
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in merged.items() if k in known})
