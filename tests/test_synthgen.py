import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import exact_floats
from supconad import synthgen
from supconad.numerics import Rng
from supconad.synthgen import (ANOMALOUS, LABELLING_MODES, MANUAL_MAJORITY, MODALITIES,
                               NORMAL, WINDOW_LEN, WINDOW_RAW_LEN, ClipRecord, GenConfig,
                               Window, by_modality, dataset_windows, generate_dataset,
                               keys_of_test_windows, load_windows, save_windows,
                               split_train_val)
from test_experiment import TINY

# small but feasible: 22/4 = 5.5, within 10% of 5.45
SMALL = dict(frame_dim=5, frames_per_clip=96, train_normal_clips=22,
             train_anomalous_clips=4, test_normal_clips=6, test_anomalous_clips=4,
             seen_archetypes=3, unseen_archetypes=4)


def small_cfg(**overrides):
    return GenConfig(**{**SMALL, **overrides, "seed": overrides.get("seed", 11)})


def split_clips(ds, split):
    return [c for c in ds.clips if c.split == split]


def clip_frames(ds, clip):
    """One clip's frames, (modality, frame, frame_dim), drawn on their own."""
    return synthgen._draw_frames(ds, [clip], MODALITIES)[0]


def cut_clip(clip, frames, labelling):
    """One clip's windows, frames over all MODALITIES, cut under labelling."""
    return synthgen._cut_clip(clip, frames, labelling, MODALITIES)


def original_windows(ds, split):
    """Windows of one split under original labelling, the test split included."""
    return [w for c in split_clips(ds, split)
            for w in cut_clip(c, clip_frames(ds, c), "original")]


def manual_clip(frame_labels, n_dims=3, clip_label=ANOMALOUS, split="test",
                archetype_id=2):
    """Clip with hand-set labels, and its frames: per-frame-index feature content."""
    t = len(frame_labels)
    offsets = 1000.0 * np.arange(len(MODALITIES))[:, None, None]
    base = np.arange(t, dtype=np.float64)[None, :, None] + offsets
    clip = ClipRecord(
        clip_id=0, split=split, clip_label=clip_label,
        frame_labels=np.asarray(frame_labels, dtype=bool),
        archetype_id=archetype_id if clip_label == ANOMALOUS else None,
    )
    return clip, np.repeat(base, n_dims, axis=2)


# -- config validation ---------------------------------------------------------

def test_config_rejects_bad_contamination():
    with pytest.raises(ValueError):
        small_cfg(contamination=1.0)


@pytest.mark.parametrize("name, value", [
    ("frame_dim", 0), ("frames_per_clip", 0), ("train_normal_clips", 0),
    ("train_anomalous_clips", 0), ("test_normal_clips", 0), ("test_anomalous_clips", 0),
    ("contamination", 1.0), ("target_imbalance", 1.0), ("target_imbalance", math.nan),
    ("seen_archetypes", 0), ("unseen_archetypes", 0), ("ar_coeff", 1.0), ("ar_coeff", -0.1),
    ("ar_coeff", math.nan), ("frame_noise_std", -1.0), ("archetype_radius", -3.0),
    ("frame_noise_std", math.inf), ("archetype_radius", math.inf),
])
def test_range_error_names_exactly_its_field(name, value):
    with pytest.raises(ValueError, match=f"^{name}: ") as exc:
        small_cfg(**{name: value})
    named = set(re.findall(r"\w+", str(exc.value))) & {f.name for f in fields(GenConfig)}
    assert named == {name}


def test_config_rejects_infeasible_imbalance():
    with pytest.raises(ValueError, match="imbalance"):
        small_cfg(train_normal_clips=10, train_anomalous_clips=4)


# -- generation ----------------------------------------------------------------

def test_zero_contamination_makes_all_frames_anomalous():
    ds = generate_dataset(small_cfg(contamination=0.0))
    for clip in ds.clips:
        if clip.clip_label == ANOMALOUS:
            assert clip.frame_labels.all()


def test_contamination_fraction_is_respected():
    cfg = small_cfg(contamination=0.4)
    ds = generate_dataset(cfg)
    for clip in ds.clips:
        if clip.clip_label == ANOMALOUS:
            frac = 1.0 - clip.frame_labels.mean()
            assert abs(frac - 0.4) < 1.0 / cfg.frames_per_clip + 1e-12


def test_training_split_never_uses_unseen_archetypes():
    ds = generate_dataset(small_cfg())
    seen_ids = {a.id for a in ds.archetypes if a.seen_in_training}
    unseen_ids = {a.id for a in ds.archetypes if not a.seen_in_training}
    assert len(seen_ids) == 3 and len(unseen_ids) == 4
    train_arches = {c.archetype_id for c in split_clips(ds, "train")
                    if c.archetype_id is not None}
    test_arches = {c.archetype_id for c in split_clips(ds, "test")
                   if c.archetype_id is not None}
    assert train_arches <= seen_ids
    assert test_arches & unseen_ids  # unseen archetypes do occur at test time


def test_clip_label_consistency():
    ds = generate_dataset(small_cfg())
    for clip in ds.clips:
        assert (clip.clip_label == ANOMALOUS) == bool(clip.frame_labels.any())


def test_modalities_share_labels_but_differ_in_features():
    ds = generate_dataset(small_cfg())
    feats = list(clip_frames(ds, split_clips(ds, "train")[0]))
    assert all(f.shape == feats[0].shape for f in feats)
    for i in range(1, len(feats)):
        assert not np.allclose(feats[0], feats[i])


def test_default_config_hits_target_imbalance():
    cfg = GenConfig()
    ds = generate_dataset(cfg)
    windows = dataset_windows(ds, "original", split="train")
    per_mod = by_modality(windows)[MODALITIES[0]]
    n_norm = sum(1 for w in per_mod if w.label == NORMAL)
    n_anom = sum(1 for w in per_mod if w.label == ANOMALOUS)
    ratio = n_norm / n_anom
    assert abs(ratio / 5.45 - 1.0) <= 0.10
    assert (n_norm, n_anom) == (1200, 220)


def test_generation_is_deterministic():
    a = generate_dataset(small_cfg())
    b = generate_dataset(small_cfg())
    for ca, cb in zip(a.clips, b.clips):
        assert np.array_equal(ca.frame_labels, cb.frame_labels)
    assert np.array_equal(synthgen._draw_frames(a, a.clips, MODALITIES),
                          synthgen._draw_frames(b, b.clips, MODALITIES))


def oracle_clip_features(cfg, mu, arch_mean, spread, mask, rng):
    """One (clip, modality) stream, frame by frame: per-frame mean + AR(1) deviations."""
    t, d = cfg.frames_per_clip, cfg.frame_dim
    means = np.tile(mu, (t, 1))
    if arch_mean is not None:
        means[mask] = arch_mean
    noise_std = np.full((t, 1), cfg.frame_noise_std)
    if arch_mean is not None:
        noise_std[mask] *= spread
    eps = rng.gaussian_array((t, d)) * noise_std
    dev = np.empty((t, d))
    blend = cfg.ar_coeff
    prev = np.zeros(d)
    for i in range(t):
        prev = blend * prev + (1.0 - blend) * eps[i]
        dev[i] = prev
    return means + dev


def oracle_clips(cfg):
    """(split, label, mask, archetype id, features) per clip, one stream at a time."""
    master = Rng(cfg.seed)
    rng_global, rng_layout = master.spawn(0), master.spawn(1)
    mu = synthgen._normal_means(cfg, rng_global)
    archetypes = synthgen._make_archetypes(cfg, mu, rng_global)
    seen = [a for a in archetypes if a.seen_in_training]
    plan = ([("train", NORMAL)] * cfg.train_normal_clips
            + [("train", ANOMALOUS)] * cfg.train_anomalous_clips
            + [("test", NORMAL)] * cfg.test_normal_clips
            + [("test", ANOMALOUS)] * cfg.test_anomalous_clips)
    counter = {"train": 0, "test": 0}
    out = []
    for clip_id, (split, label) in enumerate(plan):
        arch = None
        mask = np.zeros(cfg.frames_per_clip, dtype=bool)
        if label == ANOMALOUS:
            pool = seen if split == "train" else archetypes
            arch = pool[counter[split] % len(pool)]
            counter[split] += 1
            mask = synthgen._frame_label_layout(cfg, rng_layout)
        feats = {}
        for mi, mod in enumerate(MODALITIES):
            rng = master.spawn(1000 + clip_id * len(MODALITIES) + mi)
            feats[mod] = oracle_clip_features(
                cfg, mu[mod], arch.means[mod] if arch else None,
                arch.spread if arch else 1.0, mask, rng)
        out.append((split, label, mask, arch.id if arch else None, feats))
    return out


def assert_matches_oracle(cfg, blocks, modalities=MODALITIES):
    """The clip plan matches the oracle's, and _draw_frames, called once per
    block (clip indices, any subset in any order) over modalities, gives the
    oracle's frames."""
    ds = generate_dataset(cfg)
    expected = oracle_clips(cfg)
    assert len(ds.clips) == len(expected)
    for clip, (split, label, mask, arch_id, _) in zip(ds.clips, expected):
        assert (clip.split, clip.clip_label, clip.archetype_id) == (split, label, arch_id)
        assert clip.frame_labels.tobytes() == mask.tobytes()
    for block in blocks:
        frames = synthgen._draw_frames(ds, [ds.clips[i] for i in block], modalities)
        assert frames.shape == (len(block), len(modalities), cfg.frames_per_clip, cfg.frame_dim)
        for i, clip_frames in zip(block, frames):
            for mod, mod_frames in zip(modalities, clip_frames, strict=True):
                assert mod_frames.tobytes() == expected[i][4][mod].tobytes(), (i, mod)
    return ds


def _split_blocks(n_clips):
    """Every clip once, in blocks of _BLOCK_CLIPS, as dataset_windows draws them."""
    return [range(lo, min(lo + synthgen._BLOCK_CLIPS, n_clips))
            for lo in range(0, n_clips, synthgen._BLOCK_CLIPS)]


def test_generation_matches_per_stream_oracle_across_partial_block():
    cfg = small_cfg(test_anomalous_clips=9, seed=23)
    n_clips = len(oracle_clips(cfg))
    assert n_clips > synthgen._BLOCK_CLIPS and n_clips % synthgen._BLOCK_CLIPS != 0
    ds = assert_matches_oracle(cfg, _split_blocks(n_clips))
    unseen = {a.id for a in ds.archetypes if not a.seen_in_training}
    assert {c.split for c in ds.clips} == {"train", "test"}
    assert any(c.archetype_id in unseen for c in ds.clips)
    assert any(c.clip_label == ANOMALOUS and not c.frame_labels.all() for c in ds.clips)


def test_generation_matches_per_stream_oracle_at_default_config():
    cfg = GenConfig(seed=7)
    assert_matches_oracle(cfg, _split_blocks(len(oracle_clips(cfg))))


@pytest.mark.parametrize("seed", [1, 3, 11])
def test_frames_of_any_subset_and_order_of_clips_match_the_oracle(seed):
    """A clip's frames do not depend on the clips drawn with it or before it."""
    cfg = small_cfg(test_anomalous_clips=9, seed=seed)
    n = len(oracle_clips(cfg))
    order = Rng(seed).shuffled(n)
    blocks = [range(n - 1, -1, -1),                       # every clip, reversed
              [n - 1], [0],                               # one clip, last then first
              list(order[:7]), list(order[7:]),           # a shuffled split in two
              range(n - 1, 28, -1), range(0, n, 3),       # a reversed tail, every third
              [5, 5, 2]]                                  # a clip twice
    assert_matches_oracle(cfg, blocks)


@pytest.mark.parametrize("modalities", [MODALITIES[1:2], MODALITIES[2:], MODALITIES[::-1]],
                         ids=["one", "last-two", "reversed"])
def test_frames_of_any_subset_and_order_of_modalities_match_the_oracle(modalities):
    """A stream's frames do not depend on the modalities drawn with it."""
    cfg = small_cfg(test_anomalous_clips=9, seed=3)
    n = len(oracle_clips(cfg))
    assert_matches_oracle(cfg, [range(n), [n - 1, 0]], modalities)


def test_window_features_are_separate_contiguous_arrays():
    cfg = small_cfg(test_anomalous_clips=9)
    windows = dataset_windows(generate_dataset(cfg), "original")
    extents = []
    for w in windows:
        f = w.features
        assert f.shape == (WINDOW_LEN * cfg.frame_dim,)
        assert f.dtype == np.float64 and f.flags.c_contiguous
        start = f.__array_interface__["data"][0]
        extents.append((start, start + f.nbytes))
    extents.sort()
    # no two windows share memory with each other or with a block's frames
    assert all(end <= nxt for (_, end), (nxt, _) in zip(extents, extents[1:]))


def test_window_features_own_their_data(tmp_path):
    # a view would keep its base, a (WINDOW_LEN, frame_dim) gather, alive beside it
    cfg = small_cfg(test_anomalous_clips=9)
    ds = generate_dataset(cfg)
    cut = [w for labelling in LABELLING_MODES for w in dataset_windows(ds, labelling)]
    cut += cut_clip(ds.clips[0], clip_frames(ds, ds.clips[0]), "original")
    path = str(tmp_path / "windows.txt")
    save_windows(path, cfg, "original", cut[:50])
    _, _, read = load_windows(path)
    assert len(read) == 50
    assert all(w.features.base is None for w in cut + read)


# -- windowing -------------------------------------------------------------------

def test_64_frame_clip_gives_two_windows():
    clip, frames = manual_clip([False] * 64, clip_label=NORMAL, archetype_id=None)
    windows = cut_clip(clip, frames, "original")
    assert len(windows) == 2 * len(MODALITIES)
    per_mod = [w for w in windows if w.modality == MODALITIES[0]]
    assert [w.window_index for w in per_mod] == [0, 1]
    assert all(w.features.shape == (16 * 3,) for w in per_mod)
    # every-other-frame downsampling keeps frames 0,2,...,30 and 32,34,...,62
    got0 = per_mod[0].features.reshape(16, 3)[:, 0]
    assert np.array_equal(got0, np.arange(0, 32, 2, dtype=float))
    got1 = per_mod[1].features.reshape(16, 3)[:, 0]
    assert np.array_equal(got1, np.arange(32, 64, 2, dtype=float))


def test_short_final_window_pads_with_last_frame():
    clip, frames = manual_clip([False] * 40, clip_label=NORMAL, archetype_id=None)
    per_mod = [w for w in cut_clip(clip, frames, "original") if w.modality == MODALITIES[0]]
    assert len(per_mod) == 2
    # second raw segment is frames 32..39 plus 24 copies of frame 39,
    # downsampled to positions 32,34,36,38 then eight copies of 39
    expect = np.array([32, 34, 36, 38] + [39] * 12, dtype=float)
    got = per_mod[1].features.reshape(16, 3)[:, 0]
    assert np.array_equal(got, expect)


def test_original_labelling_marks_every_window_of_anomalous_clip():
    labels = [False] * 48 + [True] * 16
    clip, frames = manual_clip(labels)
    windows = [w for w in cut_clip(clip, frames, "original") if w.modality == MODALITIES[0]]
    assert [w.label for w in windows] == [ANOMALOUS, ANOMALOUS]


def test_manual_labelling_majority_rule_and_discard():
    # contamination concentrated in the first half of a 64-frame clip
    labels = [False] * 32 + [True] * 32
    clip, frames = manual_clip(labels)
    windows = [w for w in cut_clip(clip, frames, "manual") if w.modality == MODALITIES[0]]
    # oracle: count anomalous frames at the retained (even) positions
    retained0 = clip.frame_labels[np.arange(0, 32, 2)].sum()
    retained1 = clip.frame_labels[np.arange(32, 64, 2)].sum()
    assert retained0 == 0 and retained1 == 16
    assert [w.window_index for w in windows] == [1]
    assert windows[0].label == ANOMALOUS
    # the keep rule the test split's keys read, with no frames
    assert [w for w, _ in synthgen._kept_segments(clip, "manual")] == [1]


def test_manual_labelling_boundary_window_counts_retained_frames():
    # anomalous run covering 20 of the last 32 raw frames: 10 of 16 retained
    labels = [False] * 44 + [True] * 20
    clip, frames = manual_clip(labels)
    retained = clip.frame_labels[np.arange(32, 64, 2)].sum()
    assert retained == 10  # majority (>= 9) -> kept
    windows = [w for w in cut_clip(clip, frames, "manual") if w.modality == MODALITIES[0]]
    assert [w.window_index for w in windows] == [1]
    assert [w for w, _ in synthgen._kept_segments(clip, "manual")] == [1]


def test_manual_labelling_never_touches_normal_clips():
    clip, frames = manual_clip([False] * 64, clip_label=NORMAL, archetype_id=None)
    for mode in ("original", "manual"):
        windows = [w for w in cut_clip(clip, frames, mode) if w.modality == MODALITIES[0]]
        assert len(windows) == 2
        assert all(w.label == NORMAL for w in windows)


def test_unknown_labelling_mode_rejected():
    ds = generate_dataset(small_cfg())
    for cut in (lambda: dataset_windows(ds, "fancy"),
                # the test split is cut under manual whatever the labelling asked for
                lambda: dataset_windows(ds, "fancy", split="test"),
                lambda: dataset_windows(ds, "fancy", split="train", modalities=MODALITIES[:1])):
        with pytest.raises(ValueError, match="^unknown labelling mode 'fancy'$"):
            cut()


def test_cut_clip_is_deterministic():
    clip, frames = manual_clip([False] * 20 + [True] * 44)
    for mode in ("original", "manual"):
        a = cut_clip(clip, frames, mode)
        b = cut_clip(clip, frames, mode)
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            assert np.array_equal(wa.features, wb.features)
            assert (wa.label, wa.window_index, wa.modality) == \
                (wb.label, wb.window_index, wb.modality)


def _one_labelling_cut(ds, labelling, split):
    """dataset_windows as a loop over the clips, each clip drawn on its own and
    cut afresh: the reference for dataset_windows."""
    out = []
    for clip in ds.clips:
        if clip.split != split:
            continue
        frames = dict(zip(MODALITIES, clip_frames(ds, clip)))
        mode = labelling if clip.split == "train" else "manual"
        t = len(clip.frame_labels)
        for w, start in enumerate(range(0, t, WINDOW_RAW_LEN)):
            idx = np.minimum(np.arange(start, start + WINDOW_RAW_LEN, 2), t - 1)
            if (clip.clip_label == ANOMALOUS and mode == "manual"
                    and int(clip.frame_labels[idx].sum()) < MANUAL_MAJORITY):
                continue
            out.extend(Window(frames[mod][idx].reshape(-1).copy(), clip.clip_label,
                              clip.clip_id, w, mod, clip.split, clip.archetype_id)
                       for mod in MODALITIES)
    return out


@pytest.fixture(scope="module", params=["tiny", "default"])
def cut_datasets(request):
    return generate_dataset(TINY.gen if request.param == "tiny" else GenConfig(seed=3))


@pytest.mark.parametrize("split", ["train", "test"])
def test_labelled_windows_equal_a_cut_per_labelling(cut_datasets, split):
    """dataset_windows under each labelling, over all modalities and over a
    subset, equals the reference cut."""
    for labelling in LABELLING_MODES:
        want = _one_labelling_cut(cut_datasets, labelling, split)
        got = dataset_windows(cut_datasets, labelling, split)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.label, a.clip_id, a.window_index, a.modality, a.split, a.archetype_id) \
                == (b.label, b.clip_id, b.window_index, b.modality, b.split, b.archetype_id)
            assert a.features.dtype == b.features.dtype
            assert a.features.tobytes() == b.features.tobytes()
        subset = MODALITIES[1::2]
        assert [(w.clip_id, w.window_index, w.modality, w.features.tobytes())
                for w in dataset_windows(cut_datasets, labelling, split, subset)] \
            == [(w.clip_id, w.window_index, w.modality, w.features.tobytes())
                for w in want if w.modality in subset]


def test_manual_anomalous_count_never_exceeds_original():
    ds = generate_dataset(small_cfg(contamination=0.45))
    for split in ("train", "test"):
        orig = sum(1 for w in original_windows(ds, split) if w.label == ANOMALOUS)
        manual = sum(1 for w in dataset_windows(ds, "manual", split=split)
                     if w.label == ANOMALOUS)
        assert manual <= orig


def test_windows_never_straddle_clips():
    ds = generate_dataset(small_cfg())
    cfg = ds.config
    counts = {}
    for split in ("train", "test"):
        for w in original_windows(ds, split):
            counts.setdefault((w.clip_id, w.modality), 0)
            counts[(w.clip_id, w.modality)] += 1
    assert len(counts) == len(ds.clips) * len(MODALITIES)
    assert set(counts.values()) == {math.ceil(cfg.frames_per_clip / WINDOW_RAW_LEN)}


def test_test_windows_record_archetypes():
    ds = generate_dataset(small_cfg())
    for w in dataset_windows(ds, "manual", split="test"):
        if w.label == ANOMALOUS:
            assert w.archetype_id is not None


@pytest.mark.parametrize("gen", [TINY.gen, GenConfig()], ids=["tiny", "default"])
def test_test_window_keys_are_those_of_the_test_cut(monkeypatch, gen):
    """keys_of_test_windows gives, frame-free, each modality's (clip_id, window_index,
    label, archetype_id) of the test cut, in its order."""
    monkeypatch.setattr(synthgen, "_BLOCK_CLIPS", 5)
    for seed in range(1, 17):
        ds = generate_dataset(GenConfig(**{**vars(gen), "seed": seed}))
        keys = keys_of_test_windows(ds)
        cut = dataset_windows(ds, "manual", "test")
        assert keys and len(cut) == len(keys) * len(MODALITIES)
        for mod in MODALITIES:
            assert [(w.clip_id, w.window_index, w.label, w.archetype_id)
                    for w in cut if w.modality == mod] == keys


def test_by_modality_alignment():
    ds = generate_dataset(small_cfg())
    grouped = by_modality(dataset_windows(ds, "manual", split="test"))
    keys = [[(w.clip_id, w.window_index) for w in grouped[m]] for m in MODALITIES]
    assert all(k == keys[0] for k in keys[1:])


# -- train/val split ----------------------------------------------------------------

def _toy_windows(n_normal, n_anomalous, dim=4):
    out = []
    for i in range(n_normal + n_anomalous):
        label = NORMAL if i < n_normal else ANOMALOUS
        out.append(Window(np.full(dim, float(i)), label, i, 0, MODALITIES[0],
                          "train", None))
    return out


def test_split_counts_are_stratified():
    windows = _toy_windows(100, 20)
    train, val = split_train_val(windows, 0.2, Rng(0))
    assert sum(1 for w in val if w.label == NORMAL) == 20
    assert sum(1 for w in val if w.label == ANOMALOUS) == 4
    assert sum(1 for w in train if w.label == NORMAL) == 80
    assert sum(1 for w in train if w.label == ANOMALOUS) == 16
    assert len(train) + len(val) == 120


def test_split_lists_every_normal_window_before_any_anomalous_one():
    # the trainer takes a training split's first n_normal rows as its normal pool
    windows = sorted(_toy_windows(30, 10), key=lambda w: w.clip_id * 7 % 40)
    labels = [w.label for w in windows]
    assert labels != sorted(labels, key=[NORMAL, ANOMALOUS].index)   # interleaved input
    for seed in range(5):
        for side in split_train_val(windows, 0.2, Rng(seed)):
            n_normal = sum(w.label == NORMAL for w in side)
            assert [w.label for w in side] == \
                [NORMAL] * n_normal + [ANOMALOUS] * (len(side) - n_normal)


def test_split_is_deterministic_and_disjoint():
    windows = _toy_windows(30, 10)
    t1, v1 = split_train_val(windows, 0.25, Rng(5))
    t2, v2 = split_train_val(windows, 0.25, Rng(5))
    assert [w.clip_id for w in t1] == [w.clip_id for w in t2]
    assert [w.clip_id for w in v1] == [w.clip_id for w in v2]
    assert not {w.clip_id for w in t1} & {w.clip_id for w in v1}


def test_split_rejects_missing_class():
    with pytest.raises(ValueError, match="no anomalous"):
        split_train_val(_toy_windows(10, 0), 0.2, Rng(0))


def test_split_rejects_empty_side():
    with pytest.raises(ValueError, match="empty side"):
        split_train_val(_toy_windows(10, 2), 0.05, Rng(0))


def test_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        split_train_val(_toy_windows(10, 5), 1.0, Rng(0))


# -- persistence --------------------------------------------------------------------

def test_test_split_is_always_manually_labelled():
    ds = generate_dataset(small_cfg())
    manual = dataset_windows(ds, "manual", split="test")
    got = dataset_windows(ds, "original", split="test")
    assert [(w.clip_id, w.window_index, w.modality, w.label) for w in got] == \
        [(w.clip_id, w.window_index, w.modality, w.label) for w in manual]
    assert len(got) < len(original_windows(ds, "test"))   # majority rule dropped some


@st.composite
def window_files(draw):
    frame_dim = draw(st.integers(1, 4))
    cfg = GenConfig(frame_dim=frame_dim, contamination=draw(st.floats(0.0, 0.99)),
                    seed=draw(st.integers(0, 2 ** 63)))
    n_feat = WINDOW_LEN * frame_dim
    window = st.builds(
        Window, features=st.lists(exact_floats(), min_size=n_feat, max_size=n_feat).map(np.array),
        label=st.sampled_from((NORMAL, ANOMALOUS)), clip_id=st.integers(0, 10 ** 6),
        window_index=st.integers(0, 99), modality=st.sampled_from(MODALITIES),
        split=st.sampled_from(("train", "test")), archetype_id=st.none() | st.integers(0, 99))
    return cfg, draw(st.sampled_from(synthgen.LABELLING_MODES)), \
        draw(st.lists(window, min_size=1, max_size=4,
                      unique_by=lambda w: (w.split, w.modality, w.clip_id, w.window_index)))


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(window_files())
def test_window_file_round_trip_is_exact(tmp_path, case):
    cfg, labelling, windows = case
    path = str(tmp_path / "windows.txt")
    save_windows(path, cfg, labelling, windows)
    cfg2, labelling2, loaded = load_windows(path)
    assert cfg2 == cfg
    assert labelling2 == labelling
    assert len(loaded) == len(windows)
    for a, b in zip(windows, loaded):
        # bytes, not ==: -0.0 must come back as -0.0
        assert a.features.tobytes() == b.features.tobytes()
        assert (a.label, a.clip_id, a.window_index, a.modality, a.split,
                a.archetype_id) == (b.label, b.clip_id, b.window_index,
                                    b.modality, b.split, b.archetype_id)


def test_window_file_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.txt"
    for text in ("# other-format v2\n", ""):
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(str(path))}:1: unrecognized window file header$"):
            load_windows(str(path))


def _saved_window_lines(tmp_path):
    cfg = small_cfg()
    path = str(tmp_path / "windows.txt")
    save_windows(path, cfg, "manual", dataset_windows(generate_dataset(cfg), "manual"))
    with open(path) as f:
        return path, f.read().splitlines()


def _first_data_line(lines):
    return next(i for i, ln in enumerate(lines) if not ln.startswith("#"))


def test_window_file_short_row_names_path_and_line(tmp_path):
    path, lines = _saved_window_lines(tmp_path)
    i = _first_data_line(lines) + 3
    lines[i] = ",".join(lines[i].split(",")[:4])
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{i + 1}: expected \d+ fields, got 4$"):
        load_windows(path)


def test_window_file_truncated_last_row_names_path_and_line(tmp_path):
    path, lines = _saved_window_lines(tmp_path)
    lines[-1] = lines[-1][: len(lines[-1]) // 2].rsplit(",", 1)[0]
    (tmp_path / "windows.txt").write_text("\n".join(lines))
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{len(lines)}: expected \d+ fields"):
        load_windows(path)


@pytest.mark.parametrize("good, typo", [("# seed=", "# seeed=3"), ("# frame_dim=", "# frame_dimm=6")])
def test_window_file_unknown_header_key_names_path_and_line(tmp_path, good, typo):
    path, lines = _saved_window_lines(tmp_path)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(good))
    lines[i] = typo
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    key = typo[2:].split("=")[0]
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{i + 1}: unknown header key '{key}'$"):
        load_windows(path)


@pytest.mark.parametrize("column", [0, 1, 2, 3, 4, 5, 6, -1])
def test_window_file_bad_field_names_path_and_line(tmp_path, column):
    path, lines = _saved_window_lines(tmp_path)
    i = _first_data_line(lines) + 1
    parts = lines[i].split(",")
    # not a split (column 0), a modality key (column 1), a label (column 4) or a number
    parts[column] = "x1"
    lines[i] = ",".join(parts)
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{i + 1}: .*'x1'"):
        load_windows(path)


@pytest.mark.parametrize("column, value", [(6, "nan"), (-1, "inf"), (9, "-inf")])
def test_window_file_non_finite_feature_names_path_and_line(tmp_path, column, value):
    path, lines = _saved_window_lines(tmp_path)
    i = _first_data_line(lines) + 2
    parts = lines[i].split(",")
    parts[column] = value
    lines[i] = ",".join(parts)
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{i + 1}: non-finite value$"):
        load_windows(path)


@pytest.mark.parametrize("changed", [None, "label", "feature"])
def test_window_file_repeated_row_names_path_and_both_lines(tmp_path, changed):
    """A row whose (split, modality, clip_id, window_index) an earlier row holds is
    rejected, whatever else it changes."""
    path, lines = _saved_window_lines(tmp_path)
    i = _first_data_line(lines) + 5
    parts = lines[i].split(",")
    if changed == "label":
        parts[4] = ANOMALOUS if parts[4] == NORMAL else NORMAL
    elif changed == "feature":
        parts[-1] = "0.5"
    lines.append(",".join(parts))
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{len(lines)}: repeats the "
                                         rf"\(split, modality, clip_id, window_index\) of "
                                         rf"line {i + 1}$"):
        load_windows(path)


def test_window_file_row_differing_only_in_split_loads(tmp_path):
    path, lines = _saved_window_lines(tmp_path)
    row = lines[_first_data_line(lines)]
    assert row.startswith("train,")
    lines.append("test," + row.split(",", 1)[1])
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    *_, windows = load_windows(path)
    assert len(windows) == len(lines) - _first_data_line(lines)
    assert windows[-1].split == "test"


def test_window_file_unknown_labelling_names_path_and_line(tmp_path):
    path, lines = _saved_window_lines(tmp_path)
    i = lines.index("# labelling=manual")
    lines[i] = "# labelling=bogus"
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{i + 1}: unknown labelling "
                                         r"'bogus' \(known: original, manual\)$"):
        load_windows(path)


@pytest.mark.parametrize("key, value, where", [
    ("contamination", "1.5", "line"),
    ("train_normal_clips", "10", "path"),   # clip counts too far from the target imbalance
])
def test_window_file_config_error_names_path_and_header_line(tmp_path, key, value, where):
    path, lines = _saved_window_lines(tmp_path)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(f"# {key}="))
    lines[i] = f"# {key}={value}"
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    prefix = f"{path}:{i + 1}: {key}: " if where == "line" else f"{path}: clip counts "
    with pytest.raises(ValueError, match=f"^{re.escape(prefix)}"):
        load_windows(path)


def test_window_file_header_error_comes_before_a_bad_row(tmp_path):
    path, lines = _saved_window_lines(tmp_path)
    i = lines.index(next(ln for ln in lines if ln.startswith("# contamination=")))
    lines[i] = "# contamination=1.5"
    lines[39] = ",".join(lines[39].split(",")[:4])   # a malformed row further down
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    assert i + 1 == 9
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:9: contamination: "):
        load_windows(path)


def test_window_file_header_line_after_a_row_names_path_and_line(tmp_path):
    path, lines = _saved_window_lines(tmp_path)
    i = _first_data_line(lines) + 1
    lines.insert(i, "# seed=3")
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{i + 1}: header line after "
                                         r"the first window row$"):
        load_windows(path)


def test_window_file_missing_labelling_is_found_at_the_first_row(tmp_path):
    path, lines = _saved_window_lines(tmp_path)
    lines.remove("# labelling=manual")
    i = _first_data_line(lines)
    lines[i] = "x1"   # never parsed: the header is checked first
    (tmp_path / "windows.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: window file is missing the "
                                         r"labelling header$"):
        load_windows(path)


def test_window_file_without_rows_loads_its_header(tmp_path):
    path, lines = _saved_window_lines(tmp_path)
    (tmp_path / "windows.txt").write_text("\n".join(lines[:_first_data_line(lines)]) + "\n")
    assert load_windows(path) == (small_cfg(), "manual", [])
