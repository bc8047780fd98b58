"""Normal-template construction, cosine scoring and multi-modality fusion.

A single template per modality is the arithmetic mean of the unit-norm
embeddings of normal training windows; it is deliberately *not* re-normalized,
so its norm (<= 1) encodes how concentrated the normal class is.  A test
window's score is the dot product between the template and the window's unit
embedding, hence always in [-1, 1].  Fusing modalities averages their scores
over synchronized windows (``experiment.CellScores.fused``).

Two embedding pathways exist: the projection-head output (retained at test
time) and the encoder output h, L2-normalized on demand.  Like
``model.forward``, scoring also takes stacked params and (n, batch, input_dim)
features, slice i bit-identical to model i alone: one pass validates a group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .numerics import unit_rows, write_rows
from .synthgen import MODALITIES, Modality

PATHWAYS = ("encoder", "projection")

# The nine evaluated modality combinations: single view+channel, per-view
# channel fusion, per-channel view fusion, and everything combined.
MODALITY_COMBOS: dict[str, tuple[Modality, ...]] = {
    "top_d": (Modality.TOP_DEPTH,),
    "top_ir": (Modality.TOP_IR,),
    "top_dir": (Modality.TOP_DEPTH, Modality.TOP_IR),
    "front_d": (Modality.FRONT_DEPTH,),
    "front_ir": (Modality.FRONT_IR,),
    "front_dir": (Modality.FRONT_DEPTH, Modality.FRONT_IR),
    "fusion_d": (Modality.TOP_DEPTH, Modality.FRONT_DEPTH),
    "fusion_ir": (Modality.TOP_IR, Modality.FRONT_IR),
    "fusion_dir": tuple(MODALITIES),
}


@dataclass(frozen=True)
class NormalTemplate:
    v_n: np.ndarray
    source: str                      # "projection" | "encoder"
    modality: Modality | None = None


@dataclass
class ScoreRecord:
    clip_id: int
    window_index: int
    per_modality: dict[Modality, float]
    fused_score: float
    label: str


def _pathway_flag(use_projection: bool) -> str:
    return "projection" if use_projection else "encoder"


def embed(params: model_mod.ModelParams, features: np.ndarray, use_projection: bool) -> np.ndarray:
    """Unit-norm embeddings of the rows of a (batch, input_dim) matrix per model."""
    trace = model_mod.forward(params, features)
    return trace.v if use_projection else unit_rows(trace.h, "encoder output")[0]


def build_template(params: model_mod.ModelParams, normal_features: np.ndarray,
                   use_projection: bool, modality: Modality | None = None) -> NormalTemplate:
    """Mean of unit embeddings of the normal windows, the rows of a
    (batch, input_dim) matrix per model (not re-normalized)."""
    if np.shape(normal_features)[-2:-1] == (0,):     # no rows
        raise ValueError("need at least one normal window to build a template")
    emb = embed(params, normal_features, use_projection)
    return NormalTemplate(emb.mean(axis=-2), _pathway_flag(use_projection), modality)


def score_windows(template: NormalTemplate, params: model_mod.ModelParams,
                  features: np.ndarray, use_projection: bool) -> np.ndarray:
    """Cosine similarity to the template of each row of a (batch, dim) matrix per model."""
    if template.source != _pathway_flag(use_projection):
        raise ValueError(
            f"template was built from the {template.source} pathway, "
            f"scoring requested {_pathway_flag(use_projection)}"
        )
    v = embed(params, features, use_projection)
    return (v @ template.v_n[..., None])[..., 0]


def save_scores(path: str, records: list[ScoreRecord]) -> None:
    """Score CSV: window id, one column per present modality, fused, label."""
    if not records:
        raise ValueError("no score records to save")
    mods = [m for m in MODALITIES if m in records[0].per_modality]
    write_rows(path, [("clip_id", "window_index", *(m.key for m in mods), "fused", "label")],
               ((r.clip_id, r.window_index, *(r.per_modality[m] for m in mods), r.fused_score,
                 r.label) for r in records))
