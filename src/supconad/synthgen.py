"""Synthetic multi-view, multi-modal clip generator and windowing pipeline.

Clips mimic the structural properties of a driver-monitoring recording
session: four synchronized modality streams (top/front view, depth/IR
channel), heavy normal-vs-anomalous imbalance, anomaly archetypes that are
split into training-visible and test-only sets, and anomalous clips whose
frames are partially normal behavior (label contamination).  Frame features
are low-dimensional vectors, not images; the geometry (archetype means on a
shell around the per-modality normal mean, AR(1)-smoothed frame noise) keeps
training fast while leaving the detection task non-trivial.  dataset_windows,
the one cut, draws frames a block of clips at a time, for any subset of the
modalities; a window's features are one owning 1-D array, never a view.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .numerics import Rng, check_lower_bound, check_seed, finite_floats, open_text, write_rows

NORMAL = "normal"
ANOMALOUS = "anomalous"
LABELLING_MODES = ("original", "manual")

WINDOW_RAW_LEN = 32   # frames per extracted segment
WINDOW_LEN = 16       # frames kept after every-other-frame downsampling
MANUAL_MAJORITY = 9   # anomalous retained frames required to keep a window


class Modality(Enum):
    TOP_DEPTH = ("top", "depth")
    TOP_IR = ("top", "ir")
    FRONT_DEPTH = ("front", "depth")
    FRONT_IR = ("front", "ir")

    @property
    def key(self) -> str:
        return "_".join(self.value)

    @classmethod
    def from_key(cls, key: str) -> "Modality":
        for m in cls:
            if m.key == key:
                return m
        raise ValueError(f"unknown modality {key!r}")


MODALITIES = tuple(Modality)


@dataclass(frozen=True)
class GenConfig:
    frame_dim: int = 12
    frames_per_clip: int = 160
    train_normal_clips: int = 240
    train_anomalous_clips: int = 44
    test_normal_clips: int = 60
    test_anomalous_clips: int = 24
    contamination: float = 0.45       # fraction of normal-behavior frames in anomalous clips
    target_imbalance: float = 5.45    # normal/anomalous training-window ratio, original labelling
    seen_archetypes: int = 8
    unseen_archetypes: int = 16
    archetype_radius: float = 1.2
    frame_noise_std: float = 1.0
    ar_coeff: float = 0.8
    seed: int = 0

    def __post_init__(self):
        counts = ("frame_dim", "frames_per_clip", "train_normal_clips", "train_anomalous_clips",
                  "test_normal_clips", "test_anomalous_clips", "seen_archetypes",
                  "unseen_archetypes")
        for name in counts + ("archetype_radius", "frame_noise_std"):
            check_lower_bound(name, getattr(self, name), 1 if name in counts else 0)
        for name in ("contamination", "ar_coeff"):   # AR(1) noise dies at 1, explodes above
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name}: must be in [0, 1), got {getattr(self, name)!r}")
        check_seed("seed", self.seed)
        check_lower_bound("target_imbalance", self.target_imbalance, 1, strict=True)
        # Every clip yields the same window count, so the achievable
        # training imbalance is fixed by the clip counts; reject configs
        # that cannot land within 10% of the requested ratio.
        achieved = self.train_normal_clips / self.train_anomalous_clips
        if abs(achieved / self.target_imbalance - 1.0) > 0.10:
            raise ValueError(
                f"clip counts give imbalance {achieved:.3f}, more than 10% away "
                f"from target {self.target_imbalance}"
            )


@dataclass(frozen=True)
class AnomalyArchetype:
    id: int
    means: dict[Modality, np.ndarray]   # per-modality frame-feature mean
    spread: float
    seen_in_training: bool


@dataclass
class ClipRecord:
    clip_id: int
    split: str                          # "train" | "test"
    clip_label: str                     # NORMAL | ANOMALOUS
    frame_labels: np.ndarray            # bool, True where the frame is anomalous
    archetype_id: int | None


@dataclass
class Window:
    features: np.ndarray                # flattened (WINDOW_LEN * frame_dim,)
    label: str
    clip_id: int
    window_index: int
    modality: Modality
    split: str
    archetype_id: int | None


@dataclass
class Dataset:
    """The clip plan; dataset_windows draws the clips' frames, a block at a time."""
    config: GenConfig
    archetypes: list[AnomalyArchetype]
    normal_means: dict[Modality, np.ndarray]   # per-modality frame-feature mean
    clips: list[ClipRecord]


def _normal_means(cfg: GenConfig, rng: Rng) -> dict[Modality, np.ndarray]:
    return {m: rng.gaussian_array((cfg.frame_dim,), 0.0, 1.0) for m in MODALITIES}


def _make_archetypes(cfg: GenConfig, mu: dict[Modality, np.ndarray], rng: Rng) -> list[AnomalyArchetype]:
    archetypes = []
    total = cfg.seen_archetypes + cfg.unseen_archetypes
    for a in range(total):
        spread = 0.8 + 0.4 * rng.uniform()
        means = {}
        for m in MODALITIES:
            direction = rng.gaussian_array((cfg.frame_dim,))
            direction /= np.linalg.norm(direction)
            radius = cfg.archetype_radius * (0.8 + 0.4 * rng.uniform())
            means[m] = mu[m] + radius * direction
        archetypes.append(AnomalyArchetype(a, means, spread, a < cfg.seen_archetypes))
    return archetypes


def _frame_label_layout(cfg: GenConfig, rng: Rng) -> np.ndarray:
    """Anomalous-frame mask for one anomalous clip.

    The anomalous action occupies one contiguous run; the remaining
    contamination-fraction of frames keeps showing normal behavior.
    """
    t = cfg.frames_per_clip
    n_normal = min(int(round(cfg.contamination * t)), t - 1)
    run = t - n_normal
    start = rng.below(n_normal + 1)
    mask = np.zeros(t, dtype=bool)
    mask[start:start + run] = True
    return mask


# Clips whose frames dataset_windows draws at once and holds while it cuts
# them: 32 clips x 4 modalities x 160 frames x 12 dims of float64 is about 2 MB
# at the default shape.
_BLOCK_CLIPS = 32


def _ar1_in_place(dev: np.ndarray, blend: float) -> None:
    """AR(1)-smooth innovations ``eps`` along the frame axis (-2), in place.

    Frame i of every stream becomes ``blend * prev + (1.0 - blend) * eps[i]``,
    with ``prev`` the stream's previous smoothed frame (zeros before the
    first).  The recurrence runs once per frame over all streams; each
    element sees the same multiplies and add as a per-stream loop would.
    """
    dev *= 1.0 - blend
    prev = np.zeros(dev.shape[:-2] + dev.shape[-1:])
    scaled = np.empty_like(prev)
    for i in range(dev.shape[-2]):
        np.multiply(prev, blend, out=scaled)
        prev = dev[..., i, :]
        np.add(scaled, prev, out=prev)


def generate_dataset(cfg: GenConfig) -> Dataset:
    """The clip plan for both splits: each clip's split, label, frame-label mask
    and archetype, with the archetypes and the per-modality normal means.

    The frames are not drawn here but by dataset_windows, a block of clips at
    a time, through _draw_frames.
    """
    master = Rng(cfg.seed)
    rng_global = master.spawn(0)
    rng_layout = master.spawn(1)

    mu = _normal_means(cfg, rng_global)
    archetypes = _make_archetypes(cfg, mu, rng_global)   # an archetype's id is its index

    # (split, label, clips, archetype pool); clip j of a row takes pool[j % len(pool)]
    table = (("train", NORMAL, cfg.train_normal_clips, ()),
             ("train", ANOMALOUS, cfg.train_anomalous_clips, archetypes[:cfg.seen_archetypes]),
             ("test", NORMAL, cfg.test_normal_clips, ()),
             ("test", ANOMALOUS, cfg.test_anomalous_clips, archetypes))
    clips = []
    for split, label, n_clips, pool in table:
        for j in range(n_clips):
            mask = (_frame_label_layout(cfg, rng_layout) if pool
                    else np.zeros(cfg.frames_per_clip, dtype=bool))
            clips.append(ClipRecord(
                clip_id=len(clips),
                split=split,
                clip_label=label,
                frame_labels=mask,
                archetype_id=pool[j % len(pool)].id if pool else None,
            ))
    return Dataset(cfg, archetypes, mu, clips)


def _draw_frames(ds: Dataset, clips: list[ClipRecord],
                 modalities: tuple[Modality, ...]) -> np.ndarray:
    """Frames of clips and modalities, any subsets of ds.clips and MODALITIES in
    any order, as one (clip, modality, frame, frame_dim) array.

    Modality streams of one clip share the frame-label sequence but are drawn
    from modality-specific means with independent noise, each (clip, modality)
    stream from its own spawned Rng and smoothed on its own, so a stream's frames
    do not depend on the clips or modalities drawn with it.  A frame's features
    are its mean (the archetype's on anomalous frames) plus AR(1)-smoothed
    Gaussian noise, scaled by the archetype's spread on anomalous frames.
    """
    cfg = ds.config
    master = Rng(cfg.seed)
    t, d = cfg.frames_per_clip, cfg.frame_dim
    frames = np.empty((len(clips), len(modalities), t, d))
    for clip, clip_dev in zip(clips, frames):
        noise_std = np.full((t, 1), cfg.frame_noise_std)
        if clip.archetype_id is not None:
            noise_std[clip.frame_labels] *= ds.archetypes[clip.archetype_id].spread
        for mod, mod_dev in zip(modalities, clip_dev):
            rng_feat = master.spawn(1000 + clip.clip_id * len(MODALITIES) + MODALITIES.index(mod))
            np.multiply(rng_feat.gaussian_array((t, d)), noise_std, out=mod_dev)
    _ar1_in_place(frames, cfg.ar_coeff)
    for clip, clip_frames in zip(clips, frames):
        anomalous = clip.frame_labels[:, None]
        for mod, mod_frames in zip(modalities, clip_frames):
            mean = ds.normal_means[mod]
            if clip.archetype_id is not None:
                mean = np.where(anomalous, ds.archetypes[clip.archetype_id].means[mod], mean)
            mod_frames += mean
    return frames


def make_windows(clip: ClipRecord, frames: np.ndarray, labelling: str) -> list[Window]:
    """Cut one clip's frames, a (modality, frame, frame_dim) array in MODALITIES
    order, into non-overlapping, downsampled windows for all modalities.

    Segments of 32 frames are taken back to back; a short final segment is
    padded by repeating the last available frame, then every other frame is
    kept (32 -> 16).  Every kept window takes its clip's label.  The one
    drop: under ``manual`` labelling, a window of an anomalous clip with fewer
    than MANUAL_MAJORITY anomalous frames among its 16 retained frames.
    """
    _check_labelling(labelling)
    if len(clip.frame_labels) == 0:
        raise ValueError("clip has no frames")
    return _cut_clip(clip, frames, labelling, MODALITIES)


def _cut_clip(clip: ClipRecord, frames: np.ndarray, labelling: str,
              modalities: tuple[Modality, ...]) -> list[Window]:
    """make_windows of one clip's frames over modalities, the modalities of frames'
    first axis.  The callers check the labelling, and a generated clip always has
    frames."""
    t, d = len(clip.frame_labels), frames.shape[-1]
    kept: list[Window] = []
    for w, start in enumerate(range(0, t, WINDOW_RAW_LEN)):
        idx = np.minimum(np.arange(start, start + WINDOW_RAW_LEN, 2), t - 1)
        if (labelling == "manual" and clip.clip_label == ANOMALOUS
                and int(clip.frame_labels[idx].sum()) < MANUAL_MAJORITY):
            continue
        # the kept frames' features, row-major, as indexes into one modality's flat frames
        flat = (idx[:, None] * d + np.arange(d)).ravel()
        kept.extend(Window(
            features=mod_frames.take(flat),     # owns its data, with no (16, d) base
            label=clip.clip_label,
            clip_id=clip.clip_id,
            window_index=w,
            modality=mod,
            split=clip.split,
            archetype_id=clip.archetype_id,
        ) for mod, mod_frames in zip(modalities, frames))
    return kept


def dataset_windows(ds: Dataset, labelling: str, split: str | None = None,
                    modalities: tuple[Modality, ...] = MODALITIES) -> list[Window]:
    """Windows of modalities for the whole dataset, or for one split.

    ``labelling`` applies to the training split only.  The test split always
    uses ``manual`` labelling (frame-level majority truth), so every method
    variant is evaluated against one fixed, comparable test set.  The clips
    are drawn _BLOCK_CLIPS at a time, and a block's frames are dropped once
    its windows are cut, before the next block is drawn.  A window is the
    same whichever modalities are cut with it.
    """
    _check_labelling(labelling)
    out: list[Window] = []
    clips = [c for c in ds.clips if split is None or c.split == split]
    for lo in range(0, len(clips), _BLOCK_CLIPS):
        block = clips[lo:lo + _BLOCK_CLIPS]
        # the block's frames die with the comprehension, before the next block is drawn
        out += [w for clip, frames in zip(block, _draw_frames(ds, block, modalities))
                for w in _cut_clip(clip, frames, labelling if clip.split == "train" else "manual",
                                   modalities)]
    return out


def _check_labelling(labelling: str) -> None:
    if labelling not in LABELLING_MODES:
        raise ValueError(f"unknown labelling mode {labelling!r}")


def by_modality(windows: list[Window]) -> dict[Modality, list[Window]]:
    """Group windows per modality, aligned by (clip_id, window_index)."""
    groups: dict[Modality, list[Window]] = {m: [] for m in MODALITIES}
    for w in windows:
        groups[w.modality].append(w)
    for m in MODALITIES:
        groups[m].sort(key=lambda w: (w.clip_id, w.window_index))
    return groups


def split_train_val(windows: list[Window], fraction: float, rng: Rng) -> tuple[list[Window], list[Window]]:
    """Label-stratified split; per class, round(fraction * n) windows go to val.

    Each side lists every normal window before any anomalous one; the trainer
    relies on that order for its normal pool."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    train: list[Window] = []
    val: list[Window] = []
    for label in (NORMAL, ANOMALOUS):
        group = [w for w in windows if w.label == label]
        if not group:
            raise ValueError(f"no {label} windows to split")
        n_val = int(round(fraction * len(group)))
        if n_val == 0 or n_val == len(group):
            raise ValueError(f"split leaves an empty side for {label} windows")
        perm = rng.shuffled(len(group))
        val.extend(group[i] for i in perm[:n_val])
        train.extend(group[i] for i in perm[n_val:])
    return train, val


# -- window file format (version 1) ------------------------------------------
#
#   # supconad-windows v1
#   # labelling=<mode>
#   # <config field>=<value>        (one line per GenConfig field)
#   split,modality,clip_id,window_index,label,archetype,f0,f1,...
#
# Written by numerics.write_rows: floats as their repr, which round-trips float64.

def save_windows(path: str, cfg: GenConfig, labelling: str, windows: list[Window]) -> None:
    write_rows(path, [["# supconad-windows v1"], [f"# labelling={labelling}"],
                      *([f"# {f.name}={getattr(cfg, f.name)!r}"] for f in fields(GenConfig))],
               ((w.split, w.modality.key, w.clip_id, w.window_index, w.label,
                 "" if w.archetype_id is None else w.archetype_id, *w.features.tolist())
                for w in windows))


def load_windows(path: str) -> tuple[GenConfig, str, list[Window]]:
    """Read a version-1 window file, its header checked before any row; a malformed
    line, or a header value GenConfig rejects, raises ValueError("path:line: ...")."""
    cfg_kwargs: dict = {}
    key_lines: dict[str, int] = {}
    labelling = cfg = None
    windows = []
    field_types = {f.name: f.type for f in fields(GenConfig)}

    def header_config() -> GenConfig:
        if labelling is None:
            raise ValueError(f"{path}: window file is missing the labelling header")
        try:
            return GenConfig(**cfg_kwargs)
        except ValueError as exc:   # a single-field range error reads "<field>: ..."
            where = key_lines.get(str(exc).split(":", 1)[0])
            raise ValueError(f"{path}:{where}: {exc}" if where else f"{path}: {exc}") from None
    with open_text(path) as f:
        first = f.readline().rstrip("\n")
        if first != "# supconad-windows v1":
            raise ValueError(f"{path}:1: unrecognized window file header")
        for ln_no, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if cfg is None and not line.startswith("# "):   # the header ends at the first row
                cfg = header_config()
                n_fields = 6 + WINDOW_LEN * cfg.frame_dim   # 6 leading fields + the features
            try:
                if line.startswith("# "):
                    if cfg is not None:
                        raise ValueError("header line after the first window row")
                    key, _, value = line[2:].partition("=")
                    if key == "labelling":
                        if value not in LABELLING_MODES:
                            raise ValueError(f"unknown labelling {value!r} "
                                             f"(known: {', '.join(LABELLING_MODES)})")
                        labelling = value
                    elif key in field_types:
                        caster = {"int": int, "float": float}[field_types[key]]
                        cfg_kwargs[key] = caster(value)
                        key_lines[key] = ln_no
                    else:
                        raise ValueError(f"unknown header key {key!r}")
                    continue
                parts = line.split(",")
                if len(parts) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(parts)}")
                split, mod_key, clip_id, w_idx, label, arch = parts[:6]
                if split not in ("train", "test"):
                    raise ValueError(f"unknown split {split!r}")
                if label not in (NORMAL, ANOMALOUS):
                    raise ValueError(f"unknown label {label!r}")
                windows.append(Window(
                    features=finite_floats(parts[6:]),
                    label=label,
                    clip_id=int(clip_id),
                    window_index=int(w_idx),
                    modality=Modality.from_key(mod_key),
                    split=split,
                    archetype_id=None if arch == "" else int(arch),
                ))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln_no}: {exc}") from None
    return cfg or header_config(), labelling, windows
