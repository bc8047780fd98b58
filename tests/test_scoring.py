import numpy as np
import pytest

from supconad import model as M
from supconad import scoring
from supconad.experiment import CellScores, ExperimentConfig, score_test_set
from supconad.numerics import Rng
from supconad.synthgen import ANOMALOUS, MODALITIES, NORMAL, Modality, Window
from test_model import identity_net


def default_net(seed=0):
    return M.init_params([192, 64, 32], [32, 16], Rng(seed))


# -- embed ------------------------------------------------------------------------

def test_embed_identity_network_both_pathways():
    p = identity_net(4)
    x = np.array([[3.0, 0.0, 0.0, 4.0]])
    expect = x / 5.0
    assert np.allclose(scoring.embed(p, x, use_projection=True), expect, atol=1e-12)
    assert np.allclose(scoring.embed(p, x, use_projection=False), expect, atol=1e-12)


def test_embed_output_is_unit_norm():
    p = default_net()
    x = Rng(4).gaussian_array((10, 192))
    for use_proj in (True, False):
        emb = scoring.embed(p, x, use_proj)
        assert np.max(np.abs(np.linalg.norm(emb, axis=1) - 1.0)) < 1e-12


def test_pathways_have_different_dimensions():
    p = default_net()
    x = Rng(4).gaussian_array((1, 192))
    assert scoring.embed(p, x, use_projection=True).shape == (1, 16)
    assert scoring.embed(p, x, use_projection=False).shape == (1, 32)


def test_one_dimensional_input_is_rejected_naming_the_shape():
    p = identity_net(3)
    t = scoring.build_template(p, np.array([[1.0, 0.0, 0.0]]), True)
    x = np.array([1.0, 2.0, 3.0])
    expect = r"expected a \(batch, 3\) matrix, got shape \(3,\)"
    for use_proj in (True, False):
        with pytest.raises(ValueError, match=expect):
            scoring.embed(p, x, use_proj)
        with pytest.raises(ValueError, match=expect):
            scoring.build_template(p, x, use_proj)
    with pytest.raises(ValueError, match=expect):
        scoring.score_windows(t, p, x, True)


# -- template ------------------------------------------------------------------------

def test_template_single_window_is_its_embedding():
    p = identity_net(3)
    t = scoring.build_template(p, np.array([[2.0, 0.0, 0.0]]), True)
    assert np.allclose(t.v_n, [1.0, 0.0, 0.0], atol=1e-12)
    assert abs(np.linalg.norm(t.v_n) - 1.0) < 1e-12


def test_template_mean_of_orthogonal_embeddings():
    p = identity_net(2)
    t = scoring.build_template(p, np.array([[1.0, 0.0], [0.0, 1.0]]), True)
    assert np.allclose(t.v_n, [0.5, 0.5], atol=1e-12)
    assert abs(np.linalg.norm(t.v_n) - np.sqrt(0.5)) < 1e-12


def test_template_idempotent_for_identical_embeddings():
    p = identity_net(2)
    t = scoring.build_template(p, np.array([[5.0, 0.0]] * 7), True)
    assert np.allclose(t.v_n, [1.0, 0.0], atol=1e-12)


def test_template_requires_windows():
    with pytest.raises(ValueError, match="at least one"):
        scoring.build_template(identity_net(2), np.empty((0, 2)), True)


def test_template_order_invariance():
    p = default_net(3)
    feats = Rng(5).gaussian_array((40, 192))
    t1 = scoring.build_template(p, feats, True)
    perm = Rng(6).shuffled(40)
    t2 = scoring.build_template(p, feats[perm], True)
    assert np.max(np.abs(t1.v_n - t2.v_n)) < 1e-12
    x = Rng(7).gaussian_array((1, 192))
    s1 = scoring.score_windows(t1, p, x, True)
    s2 = scoring.score_windows(t2, p, x, True)
    assert abs(s1[0] - s2[0]) < 1e-12


# -- scores ---------------------------------------------------------------------------

def test_score_of_template_matching_window_is_one():
    p = identity_net(2)
    t = scoring.build_template(p, np.array([[3.0, 0.0]]), True)
    assert abs(scoring.score_windows(t, p, np.array([[9.0, 0.0]]), True)[0] - 1.0) < 1e-12


def test_score_of_orthogonal_window_is_zero():
    p = identity_net(2)
    t = scoring.build_template(p, np.array([[3.0, 0.0]]), True)
    assert abs(scoring.score_windows(t, p, np.array([[0.0, 2.0]]), True)[0]) < 1e-12


def test_score_hand_value():
    p = identity_net(2)
    t = scoring.build_template(p, np.array([[1.0, 0.0], [0.0, 1.0]]), True)
    assert abs(scoring.score_windows(t, p, np.array([[7.0, 0.0]]), True)[0] - 0.5) < 1e-12


def test_scores_bounded_by_template_norm():
    p = default_net(8)
    rng = Rng(9)
    feats = rng.gaussian_array((30, 192))
    t = scoring.build_template(p, feats[:10], True)
    assert np.linalg.norm(t.v_n) <= 1.0 + 1e-12  # mean of unit vectors
    scores = scoring.score_windows(t, p, feats[10:], True)
    assert np.all(np.abs(scores) <= np.linalg.norm(t.v_n) + 1e-12)
    assert np.all(np.abs(scores) <= 1.0 + 1e-12)


def test_pathway_mismatch_rejected():
    p = identity_net(2)
    t = scoring.build_template(p, np.array([[1.0, 0.0]]), True)
    with pytest.raises(ValueError, match="pathway"):
        scoring.score_windows(t, p, np.array([[1.0, 0.0]]), False)


# -- fusion (experiment.CellScores.fused) ---------------------------------------------

def cell_of(values):
    """A one-window CellScores with the given per-modality scores."""
    return CellScores({m: np.array([v]) for m, v in values.items()},
                      np.array([True]), [0], [0])


def test_fuse_single_modality_unchanged():
    assert cell_of({Modality.TOP_DEPTH: 0.37}).fused((Modality.TOP_DEPTH,))[0] == 0.37


def test_fuse_two_scores():
    got = cell_of({Modality.TOP_DEPTH: 0.2, Modality.TOP_IR: 0.8}).fused(
        (Modality.TOP_DEPTH, Modality.TOP_IR))
    assert abs(got[0] - 0.5) < 1e-12


def test_fuse_four_matches_naive_sum(np_rng):
    vals = {m: float(np_rng.uniform(-1, 1)) for m in MODALITIES}
    naive = sum(float(v) for v in vals.values()) / 4.0
    assert abs(cell_of(vals).fused(tuple(MODALITIES))[0] - naive) < 1e-12


def test_fuse_empty_rejected():
    # an empty fusion is rejected where combinations enter, at the grid config
    with pytest.raises(ValueError):
        ExperimentConfig(combos=())


def test_modality_combos_cover_the_nine_cases():
    assert len(scoring.MODALITY_COMBOS) == 9
    assert scoring.MODALITY_COMBOS["fusion_dir"] == tuple(MODALITIES)
    for name, combo in scoring.MODALITY_COMBOS.items():
        assert len(combo) == len(set(combo))


# -- scale invariance (normalization absorbs positive rescaling) ------------------------

@pytest.mark.parametrize("c", [0.1, 10.0])
def test_scores_invariant_to_projection_output_scale(c):
    p = default_net(10)
    rng = Rng(11)
    normal = rng.gaussian_array((12, 192))
    test = rng.gaussian_array((20, 192))
    t = scoring.build_template(p, normal, True)
    base = scoring.score_windows(t, p, test, True)
    scaled = p.copy()
    scaled.projection[-1].weight *= c
    scaled.projection[-1].bias *= c
    t2 = scoring.build_template(scaled, normal, True)
    got = scoring.score_windows(t2, scaled, test, True)
    assert np.max(np.abs(got - base)) < 1e-9


# -- aligned multi-modality scoring (experiment.score_test_set) -------------------------

def _aligned_setup(n_windows=8, dim=6):
    rng = Rng(20)
    models = {m: M.init_params([dim, 24, 12], [12, 4], rng) for m in MODALITIES}
    test, train = {}, {}
    for m in MODALITIES:
        test[m] = [
            Window(rng.gaussian_array((dim,)), NORMAL if i % 2 == 0 else ANOMALOUS,
                   i // 2, i % 2, m, "test", None)
            for i in range(n_windows)
        ]
        train[m] = [Window(rng.gaussian_array((dim,)), NORMAL, 100 + i, 0, m, "train", None)
                    for i in range(5)]
    return models, train, test


def test_score_aligned_windows_fuses_means():
    cell = score_test_set(*_aligned_setup(), "projection")
    records = cell.records()
    assert len(records) == 8
    for r in records:
        assert list(r.per_modality) == list(MODALITIES)
        expect = np.mean([r.per_modality[m] for m in MODALITIES])
        assert abs(r.fused_score - expect) < 1e-12
        assert all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in r.per_modality.values())
    assert [r.label for r in records] == [NORMAL, ANOMALOUS] * 4


def test_score_test_set_scores_only_the_modalities_given():
    models, train, test = _aligned_setup()
    full = score_test_set(models, train, test, "projection")
    subset = (Modality.FRONT_IR, Modality.TOP_IR)
    # only the given modalities need windows; the others are absent altogether
    cell = score_test_set({m: models[m] for m in subset}, {m: train[m] for m in subset},
                          {m: test[m] for m in subset}, "projection")
    assert list(cell.scores) == [Modality.TOP_IR, Modality.FRONT_IR]
    for m in subset:
        assert np.array_equal(cell.scores[m], full.scores[m])
    assert np.array_equal(cell.labels, full.labels)
    assert (cell.clip_ids, cell.window_indices) == (full.clip_ids, full.window_indices)


def test_score_aligned_windows_rejects_misalignment():
    models, train, test = _aligned_setup()
    test[Modality.TOP_IR] = test[Modality.TOP_IR][::-1]
    with pytest.raises(ValueError, match="not aligned"):
        score_test_set(models, train, test, "projection")


@pytest.mark.parametrize("pathway", ["projector", "", True])
def test_score_test_set_rejects_an_unknown_pathway(pathway):
    with pytest.raises(ValueError, match=rf"^unknown pathway {pathway!r} "
                                         r"\(known: encoder, projection\)$"):
        score_test_set(*_aligned_setup(), pathway)


def test_save_scores_csv(tmp_path):
    records = score_test_set(*_aligned_setup(), "projection").records()
    path = tmp_path / "scores.csv"
    scoring.save_scores(str(path), records)
    lines = path.read_text().splitlines()
    assert lines[0] == "clip_id,window_index,top_depth,top_ir,front_depth,front_ir,fused,label"
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert int(first[0]) == records[0].clip_id
    assert float(first[6]) == records[0].fused_score


def test_records_cover_only_the_modalities_present():
    cell = cell_of({Modality.FRONT_IR: 0.25, Modality.TOP_DEPTH: -0.5})
    (record,) = cell.records()
    assert list(record.per_modality) == [Modality.TOP_DEPTH, Modality.FRONT_IR]
    assert record.fused_score == -0.125 and record.label == NORMAL
