import dataclasses
import weakref

import numpy as np
import pytest

from supconad import model as M
from supconad import scoring
from supconad.experiment import CellScores, ExperimentConfig, score_test_set
from supconad.numerics import DegenerateVectorError, Rng
from supconad.synthgen import ANOMALOUS, MODALITIES, NORMAL, Modality, Window
from supconad.trainer import Checkpoint, TrainResult
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
    stacked = M.ModelParams.stack([default_net(0), default_net(1)])
    with pytest.raises(ValueError, match="need at least one normal window"):
        scoring.build_template(stacked, np.empty((2, 0, 192)), True)


@pytest.mark.parametrize("use_proj", [True, False])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_stacked_scoring_equals_each_member_alone(n, use_proj):
    # the default shapes: 960 normal training rows and 290 validation rows per
    # model, held in one array as the trainer holds them
    n_normal, n_val = 960, 290
    members = [default_net(seed) for seed in range(n)]
    rows = Rng(n).gaussian_array((n, n_normal + n_val, 192))
    stacked = M.ModelParams.stack(members)
    template = scoring.build_template(stacked, rows[:, :n_normal], use_proj)
    scores = scoring.score_windows(template, stacked, rows[:, n_normal:], use_proj)
    assert scores.shape == (n, n_val)
    for i, p in enumerate(members):
        alone = scoring.build_template(p, rows[i, :n_normal], use_proj)
        assert np.array_equal(template.v_n[i], alone.v_n)
        assert np.array_equal(scores[i], scoring.score_windows(alone, p, rows[i, n_normal:],
                                                               use_proj))


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

def _models(seed):
    """Untrained models of _aligned_setup's widths, one per modality."""
    rng = Rng(seed)
    return {m: M.init_params([6, 24, 12], [12, 4], rng) for m in MODALITIES}


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


def _trained(models, loss="average"):
    """Each (loss, modality) model as the TrainResult whose best checkpoint on both
    pathways is that model."""
    return {(loss, m): TrainResult({pathway: Checkpoint(p, 1.0, 1)
                                    for pathway in scoring.PATHWAYS}, [])
            for m, p in models.items()}


def _cell(scored, loss, test, head):
    """The CellScores of loss's models in scored, under head."""
    by_mod = {m: by_head[head] for (key_loss, m), by_head in scored.items() if key_loss == loss}
    return dataclasses.replace(CellScores.for_windows(test[next(iter(by_mod))]), scores=by_mod)


def _score(models, train, test, head="projection"):
    return _cell(score_test_set(_trained(models), train, test, (head,)), "average", test, head)


def test_score_aligned_windows_fuses_means():
    cell = _score(*_aligned_setup())
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
    full = _score(models, train, test)
    subset = (Modality.FRONT_IR, Modality.TOP_IR)
    # only the given modalities need windows; the others are absent altogether
    given = {m: models[m] for m in subset}
    scored = score_test_set(_trained(given), {m: train[m] for m in subset},
                            {m: test[m] for m in subset}, ("projection",))
    assert list(scored) == [("average", m) for m in subset]
    cell = _cell(scored, "average", test, "projection")
    for m in subset:
        assert np.array_equal(cell.scores[m], full.scores[m])
    assert np.array_equal(cell.labels, full.labels)
    assert (cell.clip_ids, cell.window_indices) == (full.clip_ids, full.window_indices)


def test_score_test_set_scores_groups_that_hold_different_modalities():
    # as a pool worker's mixed group: the last sum modality and the first two average ones
    models, train, test = _aligned_setup()
    others = _models(21)
    groups = {"sum": {MODALITIES[3]: models[MODALITIES[3]]},
              "average": {m: others[m] for m in MODALITIES[:2]}}
    scored = score_test_set({**_trained(groups["sum"], "sum"), **_trained(groups["average"])},
                            train, test, scoring.PATHWAYS)
    for loss, group in groups.items():
        for head in scoring.PATHWAYS:
            cell = _cell(scored, loss, test, head)
            alone = _score(group, {m: train[m] for m in group}, {m: test[m] for m in group}, head)
            assert list(cell.scores) == list(group)
            assert all(np.array_equal(cell.scores[m], alone.scores[m]) for m in group)
            assert np.array_equal(cell.labels, alone.labels)


def test_score_aligned_windows_rejects_misalignment():
    models, train, test = _aligned_setup()
    test[Modality.TOP_IR] = test[Modality.TOP_IR][::-1]
    with pytest.raises(ValueError, match="not aligned"):
        _score(models, train, test)


@pytest.mark.parametrize("pathway", ["projector", "", True])
def test_score_test_set_rejects_an_unknown_pathway(pathway):
    with pytest.raises(ValueError, match=rf"^unknown pathway {pathway!r} "
                                         r"\(known: encoder, projection\)$"):
        _score(*_aligned_setup(), pathway)


def test_a_later_heads_template_error_wins_over_an_earlier_heads_scoring_error(monkeypatch):
    # at the second modality the encoder head fails to score and the projection head
    # fails to build its template: every head's template is built before any scores
    real_build, real_score = scoring.build_template, scoring.score_windows
    failing = MODALITIES[1]

    def build_template(params, features, use_projection, modality=None):
        if use_projection and modality == failing:
            raise DegenerateVectorError("projection template")
        return real_build(params, features, use_projection, modality)

    def score_windows(template, params, features, use_projection):
        if not use_projection and template.modality == failing:
            raise DegenerateVectorError("encoder scores")
        return real_score(template, params, features, use_projection)

    monkeypatch.setattr(scoring, "build_template", build_template)
    monkeypatch.setattr(scoring, "score_windows", score_windows)
    models, train, test = _aligned_setup()
    stage, error = score_test_set(_trained(models), train, test,
                                  ("encoder", "projection"))["average", failing]
    assert (stage, type(error), str(error)) == (1, DegenerateVectorError, "projection template")


def test_score_test_set_never_holds_a_normal_and_a_test_stack_together(monkeypatch):
    real_stack, stacks, alive_at_stack = np.stack, [], []

    def stack(arrays, *args, **kwargs):
        alive_at_stack.append(sum(ref() is not None for ref in stacks))
        out = real_stack(arrays, *args, **kwargs)
        stacks.append(weakref.ref(out))
        return out

    models, train, test = _aligned_setup()
    monkeypatch.setattr(np, "stack", stack)
    scored = score_test_set({**_trained(models, "sum"), **_trained(_models(21))},
                            train, test, scoring.PATHWAYS)
    assert [list(by_head) for by_head in scored.values()] == [list(scoring.PATHWAYS)] * 8
    # per modality a normal stack, then a test stack, each shared by both groups' models
    # and made with no other alive
    assert alive_at_stack == [0] * 2 * len(MODALITIES)


class _CountingWindow:
    """A window whose features count their reads."""

    def __init__(self, window):
        self.window, self.reads = window, 0

    def __getattr__(self, name):
        return getattr(self.window, name)

    @property
    def features(self):
        self.reads += 1
        return self.window.features


def test_score_test_set_reads_each_window_once_for_every_head():
    _, train, test = _aligned_setup()
    groups = {"sum": _models(20), "average": _models(21)}
    want = {(loss, head): _score(models, train, test, head)
            for loss, models in groups.items() for head in scoring.PATHWAYS}
    train, test = ({m: [_CountingWindow(w) for w in ws] for m, ws in split.items()}
                   for split in (train, test))
    scored = score_test_set({**_trained(groups["sum"], "sum"), **_trained(groups["average"])},
                            train, test, ("encoder", "projection"))
    assert list(scored) == [(loss, m) for loss in groups for m in MODALITIES]
    for (loss, m), by_head in scored.items():
        assert list(by_head) == ["encoder", "projection"]
        for head, scores in by_head.items():
            assert np.array_equal(scores, want[loss, head].scores[m])
    # every window here is a normal training window or a test window
    assert {w.reads for split in (train, test) for ws in split.values() for w in ws} == {1}


def test_a_group_whose_template_fails_leaves_the_other_group_as_if_alone():
    _, train, test = _aligned_setup()
    good, bad = _models(20), _models(21)
    # the projection output of the second modality's model is all zeros: no template
    bad[MODALITIES[1]].projection[-1].weight[:] = bad[MODALITIES[1]].projection[-1].bias[:] = 0
    scored = score_test_set({**_trained(bad, "sum"), **_trained(good)}, train, test,
                            scoring.PATHWAYS)
    stage, error = scored["sum", MODALITIES[1]]
    assert (stage, type(error)) == (1, DegenerateVectorError)
    assert str(error) == "projection output norm is degenerate or non-finite"
    # its group mates are scored all the same, each as if alone
    for m in (m for m in MODALITIES if m != MODALITIES[1]):
        alone = score_test_set(_trained({m: bad[m]}, "sum"), train, test, scoring.PATHWAYS)
        assert all(np.array_equal(scored["sum", m][h], alone["sum", m][h])
                   for h in scoring.PATHWAYS)
    for head in scoring.PATHWAYS:
        cell = _cell(scored, "average", test, head)
        alone = _score(good, train, test, head)
        assert list(cell.scores) == list(MODALITIES)
        assert all(np.array_equal(cell.scores[m], alone.scores[m]) for m in MODALITIES)
        assert np.array_equal(cell.labels, alone.labels)
        assert (cell.clip_ids, cell.window_indices) == (alone.clip_ids, alone.window_indices)


def test_save_scores_csv(tmp_path):
    records = _score(*_aligned_setup()).records()
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
