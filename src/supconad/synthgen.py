"""Synthetic multi-view, multi-modal clip generator and windowing pipeline.

Clips mimic the structural properties of a driver-monitoring recording
session: four synchronized modality streams (top/front view, depth/IR
channel), heavy normal-vs-anomalous imbalance, anomaly archetypes that are
split into training-visible and test-only sets, and anomalous clips whose
frames are partially normal behavior (label contamination).  Frame features
are low-dimensional vectors, not images; the geometry (archetype means on a
shell around the per-modality normal mean, AR(1)-smoothed frame noise) keeps
training fast while leaving the detection task non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .numerics import Rng

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
        for name in ("frame_dim", "frames_per_clip", "train_normal_clips",
                     "train_anomalous_clips", "test_normal_clips", "test_anomalous_clips",
                     "seen_archetypes", "unseen_archetypes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)!r}")
        if not 0.0 <= self.contamination < 1.0:
            raise ValueError(f"contamination: must be in [0, 1), got {self.contamination!r}")
        if not self.target_imbalance > 1.0:
            raise ValueError(f"target_imbalance: must be > 1, got {self.target_imbalance!r}")
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
    features: dict[Modality, np.ndarray]  # (frames, frame_dim) per modality


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
    config: GenConfig
    archetypes: list[AnomalyArchetype]
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


# Clips whose AR(1) frame noise shares one working buffer: 32 clips x 4
# modalities x 160 frames x 12 dims of float64 is about 2 MB at the default shape.
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
    """Generate synchronized four-modality clips for both splits.

    Training anomalous clips cycle through the seen archetypes only; test
    anomalous clips cycle through seen + unseen so every archetype appears.
    Modality streams of one clip share the frame-label sequence but are
    generated from modality-specific means with independent noise, each
    (clip, modality) stream from its own spawned Rng.  A frame's features are
    its mean (the archetype's on anomalous frames) plus AR(1)-smoothed
    Gaussian noise, scaled by the archetype's spread on anomalous frames.
    """
    master = Rng(cfg.seed)
    rng_global = master.spawn(0)
    rng_layout = master.spawn(1)

    mu = _normal_means(cfg, rng_global)
    archetypes = _make_archetypes(cfg, mu, rng_global)
    seen = [a for a in archetypes if a.seen_in_training]

    plan = (
        [("train", NORMAL)] * cfg.train_normal_clips
        + [("train", ANOMALOUS)] * cfg.train_anomalous_clips
        + [("test", NORMAL)] * cfg.test_normal_clips
        + [("test", ANOMALOUS)] * cfg.test_anomalous_clips
    )
    clips = []
    clip_archs: list[AnomalyArchetype | None] = []
    anom_counter = {"train": 0, "test": 0}
    for clip_id, (split, label) in enumerate(plan):
        if label == ANOMALOUS:
            pool = seen if split == "train" else archetypes
            arch = pool[anom_counter[split] % len(pool)]
            anom_counter[split] += 1
            mask = _frame_label_layout(cfg, rng_layout)
        else:
            arch = None
            mask = np.zeros(cfg.frames_per_clip, dtype=bool)
        clips.append(ClipRecord(
            clip_id=clip_id,
            split=split,
            clip_label=label,
            frame_labels=mask,
            archetype_id=arch.id if arch else None,
            features={},
        ))
        clip_archs.append(arch)

    t, d, n_mod = cfg.frames_per_clip, cfg.frame_dim, len(MODALITIES)
    buf = np.empty((_BLOCK_CLIPS, n_mod, t, d))
    for lo in range(0, len(clips), _BLOCK_CLIPS):
        block = list(zip(clips[lo:lo + _BLOCK_CLIPS], clip_archs[lo:lo + _BLOCK_CLIPS]))
        dev = buf[:len(block)]
        for (clip, arch), clip_dev in zip(block, dev):
            noise_std = np.full((t, 1), cfg.frame_noise_std)
            if arch is not None:
                noise_std[clip.frame_labels] *= arch.spread
            for mi in range(n_mod):
                rng_feat = master.spawn(1000 + clip.clip_id * n_mod + mi)
                np.multiply(rng_feat.gaussian_array((t, d)), noise_std, out=clip_dev[mi])
        _ar1_in_place(dev, cfg.ar_coeff)
        for (clip, arch), clip_dev in zip(block, dev):
            for mod, mod_dev in zip(MODALITIES, clip_dev):
                feats = np.tile(mu[mod], (t, 1))
                if arch is not None:
                    feats[clip.frame_labels] = arch.means[mod]
                feats += mod_dev
                clip.features[mod] = feats
    return Dataset(cfg, archetypes, clips)


def make_windows(clip: ClipRecord, labelling: str) -> list[Window]:
    """Cut one clip into non-overlapping, downsampled windows for all modalities.

    Segments of 32 frames are taken back to back; a short final segment is
    padded by repeating the last available frame, then every other frame is
    kept (32 -> 16).  Under ``original`` labelling every window of an
    anomalous clip inherits the clip label.  Under ``manual`` labelling a
    window of an anomalous clip is kept as anomalous only when at least
    MANUAL_MAJORITY of its 16 retained frames are anomalous; the rest are
    discarded.  Windows of normal clips are never relabelled or discarded.
    """
    if labelling not in LABELLING_MODES:
        raise ValueError(f"unknown labelling mode {labelling!r}")
    t = len(clip.frame_labels)
    if t == 0:
        raise ValueError("clip has no frames")

    keep = np.arange(0, WINDOW_RAW_LEN, 2)
    windows = []
    for w, start in enumerate(range(0, t, WINDOW_RAW_LEN)):
        idx = np.minimum(np.arange(start, start + WINDOW_RAW_LEN), t - 1)[keep]
        if clip.clip_label == ANOMALOUS:
            if labelling == "original":
                label = ANOMALOUS
            else:
                if int(clip.frame_labels[idx].sum()) < MANUAL_MAJORITY:
                    continue
                label = ANOMALOUS
        else:
            label = NORMAL
        for mod in MODALITIES:
            windows.append(Window(
                features=clip.features[mod][idx].reshape(-1).copy(),
                label=label,
                clip_id=clip.clip_id,
                window_index=w,
                modality=mod,
                split=clip.split,
                archetype_id=clip.archetype_id,
            ))
    return windows


def dataset_windows(ds: Dataset, labelling: str, split: str | None = None) -> list[Window]:
    """Windows for the whole dataset, or for one split.

    ``labelling`` applies to the training split only.  The test split always
    uses ``manual`` labelling (frame-level majority truth), so every method
    variant is evaluated against one fixed, comparable test set.
    """
    out = []
    for clip in ds.clips:
        if split is not None and clip.split != split:
            continue
        mode = labelling if clip.split == "train" else "manual"
        out.extend(make_windows(clip, mode))
    return out


def by_modality(windows: list[Window]) -> dict[Modality, list[Window]]:
    """Group windows per modality, aligned by (clip_id, window_index)."""
    groups: dict[Modality, list[Window]] = {m: [] for m in MODALITIES}
    for w in windows:
        groups[w.modality].append(w)
    for m in MODALITIES:
        groups[m].sort(key=lambda w: (w.clip_id, w.window_index))
    return groups


def split_train_val(windows: list[Window], fraction: float, rng: Rng) -> tuple[list[Window], list[Window]]:
    """Label-stratified split; per class, round(fraction * n) windows go to val."""
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
# Floats are written with repr, which round-trips float64 exactly.

def save_windows(path: str, cfg: GenConfig, labelling: str, windows: list[Window]) -> None:
    with open(path, "w") as f:
        f.write("# supconad-windows v1\n")
        f.write(f"# labelling={labelling}\n")
        for fld in fields(GenConfig):
            f.write(f"# {fld.name}={getattr(cfg, fld.name)!r}\n")
        for w in windows:
            arch = "" if w.archetype_id is None else str(w.archetype_id)
            feat = ",".join(repr(float(x)) for x in w.features)
            f.write(f"{w.split},{w.modality.key},{w.clip_id},{w.window_index},"
                    f"{w.label},{arch},{feat}\n")


def load_windows(path: str) -> tuple[GenConfig, str, list[Window]]:
    """Read a version-1 window file; a malformed line raises ValueError("path:line: ...")."""
    cfg_kwargs: dict = {}
    labelling = None
    windows = []
    field_types = {f.name: f.type for f in fields(GenConfig)}
    n_fields = None   # 6 leading fields + the features, fixed by the frame_dim header
    with open(path) as f:
        first = f.readline().rstrip("\n")
        if first != "# supconad-windows v1":
            raise ValueError(f"unrecognized window file header in {path}")
        for ln_no, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            try:
                if line.startswith("# "):
                    key, _, value = line[2:].partition("=")
                    if key == "labelling":
                        labelling = value
                    elif key in field_types:
                        caster = {"int": int, "float": float}[field_types[key]]
                        cfg_kwargs[key] = caster(value)
                    else:
                        raise ValueError(f"unknown header key {key!r}")
                    continue
                if n_fields is None:
                    n_fields = 6 + WINDOW_LEN * cfg_kwargs.get("frame_dim", GenConfig.frame_dim)
                parts = line.split(",")
                if len(parts) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(parts)}")
                split, mod_key, clip_id, w_idx, label, arch = parts[:6]
                if split not in ("train", "test"):
                    raise ValueError(f"unknown split {split!r}")
                if label not in (NORMAL, ANOMALOUS):
                    raise ValueError(f"unknown label {label!r}")
                windows.append(Window(
                    features=np.array([float(t) for t in parts[6:]], dtype=np.float64),
                    label=label,
                    clip_id=int(clip_id),
                    window_index=int(w_idx),
                    modality=Modality.from_key(mod_key),
                    split=split,
                    archetype_id=None if arch == "" else int(arch),
                ))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln_no}: {exc}") from None
    if labelling is None:
        raise ValueError("window file is missing the labelling header")
    return GenConfig(**cfg_kwargs), labelling, windows
