"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s``. The training-based criteria
(overfit, graph recovery) take several minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from sdgl import autodiff as ad
from sdgl.autodiff import Tape, Tensor, grad_check
from sdgl.data import (
    PlantedGraphSpec,
    graph_recovery_score,
    make_windows,
    metrics,
    synth_generate,
)
from sdgl.dynamic_graph import DynamicGraphLearner
from sdgl.graph_conv import MixHopConv
from sdgl.model import ModelConfig, SDGLModel, SGD, hybrid_loss, train
from sdgl.rng import RngState
from sdgl.static_graph import (
    NodeEmbeddings,
    build_static_graph,
    graph_regularization_loss,
    momentum_update,
)
from sdgl.temporal import GatedTemporalLayer, receptive_field


def report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")


# -- 1. scope statement ---------------------------------------------------------


def test_benchmark_reproduction_out_of_scope():
    """Benchmark-table error figures need full-scale GPU training on the
    public traffic datasets; this artifact verifies properties instead.
    Nothing to compute, the line records the scope decision."""
    report("benchmark-number reproduction not attempted; acceptance is property-based", True)


# -- 2. gradient suite ----------------------------------------------------------


def test_gradient_suite_20_seeds_under_2_minutes():
    started = time.time()
    ok = True
    worst = 0.0

    primitive_cases = {
        "matmul": lambda x: ad.reduce_sum(ad.mul(
            ad.matmul(x, Tensor(np.linspace(-1, 1, 20).reshape(5, 4))),
            ad.matmul(x, Tensor(np.linspace(2, 3, 20).reshape(5, 4))))),
        "row_softmax": lambda x: ad.reduce_sum(ad.mul(
            ad.row_softmax(x), Tensor(np.arange(20.0).reshape(4, 5)))),
        "layer_norm": lambda x: ad.reduce_sum(ad.mul(
            ad.layer_norm(x), Tensor(np.arange(20.0).reshape(4, 5)))),
        "tanh": lambda x: ad.reduce_sum(ad.tanh(x)),
        "sigmoid": lambda x: ad.reduce_sum(ad.sigmoid(x)),
    }
    for seed in range(20):
        x = Tensor(np.random.default_rng(seed).normal(size=(4, 5)))
        for name, f in primitive_cases.items():
            rep = grad_check(f, x, h=1e-5, tol=1e-4)
            ok &= rep.passed
            worst = max(worst, rep.max_rel_err)

        # static-graph loss through the adjacency construction
        xs = Tensor(np.random.default_rng(seed + 100).normal(size=(2, 4, 5)))
        m = Tensor(np.random.default_rng(seed + 200).normal(size=(4, 3)))
        rep = grad_check(
            lambda z: graph_regularization_loss(xs, build_static_graph(z).values, gamma=0.2),
            m, h=1e-5, tol=1e-4)
        ok &= rep.passed
        worst = max(worst, rep.max_rel_err)

        # temporal + graph-convolution path
        tcn = GatedTemporalLayer(2, 4, 1, RngState(seed))
        gcn = MixHopConv(4, 2, RngState(seed + 1))
        adj = Tensor(np.random.default_rng(seed).random((3, 3)) + 0.1)
        xt = Tensor(np.ascontiguousarray(  # (B, C, T, N): grad_check perturbs it in place
            np.random.default_rng(seed + 2).normal(size=(1, 2, 3, 12)).swapaxes(2, 3)))
        rep = grad_check(
            lambda z: ad.mean_all(ad.mul(gcn(tcn(z), adj), gcn(tcn(z), adj))),
            xt, h=1e-5, tol=1e-4)
        ok &= rep.passed
        worst = max(worst, rep.max_rel_err)

        # dynamic-graph stack through fusion, attention and refinement
        learner = DynamicGraphLearner(4, 5, 4, head_dim=2, n_heads=2,
                                      dropout_keep=1.0, rng=RngState(seed), mode="full")
        emb = NodeEmbeddings.initialize(4, 4, 0.9, RngState(seed + 3))
        xw = Tensor(np.random.default_rng(seed + 4).normal(size=(1, 4, 5)))
        target = Tensor(np.random.default_rng(seed + 5).normal(size=(1, 4, 4)))

        def dyn_loss(_):
            a = learner(xw, emb, RngState(0), training=False)
            return ad.mean_all(ad.mul(ad.sub(a.values, target), ad.sub(a.values, target)))

        rep = grad_check(dyn_loss, emb.m_static, h=1e-5, tol=1e-4)
        ok &= rep.passed
        worst = max(worst, rep.max_rel_err)

    # full model: 4 nodes, window 19, two layers, dropout off; the looser
    # 1e-3 tolerance and h=1e-4 absorb finite-difference roundoff on
    # tiny-magnitude parameter gradients
    full_worst = 0.0
    for seed in range(20):
        cfg = ModelConfig(n_nodes=4, window=19, horizon=3, embed_dim=8, heads=2,
                          channels=8, layers=2, dropout_keep=1.0, seed=seed)
        model = SDGLModel(cfg)
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 4, 19)))
        y = Tensor(rng.normal(size=(2, 4, 3)))

        def loss(_):
            out = model.forward(x, training=False)
            return hybrid_loss(out.prediction, y, out.reg_loss, cfg.lambda_reg)

        sample_rng = RngState(seed)
        for name, p in model.parameters().items():
            rep = grad_check(loss, p, h=1e-4, tol=1e-3, sample=2, rng=sample_rng)
            ok &= rep.passed
            full_worst = max(full_worst, rep.max_rel_err)

    elapsed = time.time() - started
    ok &= elapsed < 120
    report("gradient suite, 20 seeds, module ops <=1e-4 and full model <=1e-3",
           ok, f"worst op {worst:.2e}, worst full-model {full_worst:.2e}, {elapsed:.0f}s")
    assert ok


# -- 3. adjacency invariants ------------------------------------------------------


def test_adjacency_invariants_100_random_configurations():
    ok = True
    rng = np.random.default_rng(0)
    for case in range(100):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(1, 9))
        scale = float(rng.uniform(0.01, 5.0))
        m = Tensor(rng.normal(size=(n, d)) * scale)
        a = build_static_graph(m).values.data
        ok &= bool(np.all(a > 0)) and bool(np.all(np.abs(a.sum(axis=1) - 1) <= 1e-9))

        if case % 5 == 0:  # a full dynamic stack every fifth case
            h = int(rng.integers(3, 10))
            learner = DynamicGraphLearner(n, h, max(d, 2), head_dim=2, n_heads=2,
                                          dropout_keep=1.0, rng=RngState(case),
                                          mode="full")
            emb = NodeEmbeddings.initialize(n, max(d, 2), 0.9, RngState(case + 1))
            x = Tensor(rng.normal(size=(3, n, h)) * scale)
            ad_vals = learner(x, emb, RngState(0), training=False).values.data
            ok &= bool(np.all(ad_vals > 0))
            ok &= bool(np.all(np.abs(ad_vals.sum(axis=-1) - 1) <= 1e-9))
    report("static and dynamic adjacencies strictly positive, rows sum to 1 +/- 1e-9, "
           "100 random configurations", ok)
    assert ok


# -- 4. receptive-field law -------------------------------------------------------


def test_receptive_field_law_exact():
    expected = {1: 7, 2: 19, 3: 43}
    ok = all(receptive_field(7, 2.0, k) == v for k, v in expected.items())
    # empirical check: perturb one input step at a time and see which ones
    # reach the final output step of a k-layer stack
    for k in (1, 2, 3):
        layers = [GatedTemporalLayer(4 if j else 2, 4, 2 ** j, RngState(j)) for j in range(k)]
        t_in = expected[k] + 3
        base = np.random.default_rng(k).normal(size=(1, 2, 1, t_in))

        def last(xv):
            h = Tensor(np.swapaxes(xv, 2, 3))  # the layers take (B, C, T, N)
            for layer in layers:
                h = layer(h)
            return h.data[0, :, -1, 0]

        ref = last(base)
        reach = 0
        for t in range(t_in):
            bumped = base.copy()
            bumped[0, :, 0, t] += 1.0
            if np.abs(last(bumped) - ref).max() > 0:
                reach += 1
        ok &= reach == expected[k]
    report("receptive field of the dilated stack matches the closed form, "
           "{7, 19, 43} for 1-3 layers, exact", ok)
    assert ok


# -- 5. oracle equivalences -------------------------------------------------------


def test_oracle_equivalences():
    rng = np.random.default_rng(0)
    ok = True

    # graph-regularization loss vs literal double loop
    x = rng.normal(size=(3, 4, 5))
    a = rng.random((4, 4))
    total = 0.0
    for s in range(3):
        for i in range(4):
            for j in range(4):
                total += ((x[s, i] - x[s, j]) ** 2).sum() * a[i, j]
    want = total / 3 + 0.3 * (a ** 2).sum()
    got = graph_regularization_loss(Tensor(x), Tensor(a), gamma=0.3).item()
    ok &= abs(got - want) <= 1e-12

    # mix-hop propagation vs explicit matrix powers
    conv = MixHopConv(3, 3, RngState(1))
    xc = rng.normal(size=(2, 3, 4, 5))
    ac = rng.random((4, 4)) + 0.05
    p = ac / ac.sum(axis=1, keepdims=True)
    hops = [np.einsum("nm,bcmt->bcnt", np.linalg.matrix_power(p, s), xc) for s in (1, 2, 3)]
    stacked = np.concatenate(hops + [xc], axis=1)
    want_c = np.einsum("oc,bcnt->bont", conv.w_select.data, stacked) \
        + conv.bias.data.reshape(1, -1, 1, 1)
    got_c = conv(Tensor(xc.swapaxes(2, 3)), Tensor(ac)).data.swapaxes(2, 3)
    ok &= np.abs(got_c - want_c).max() <= 1e-10

    # dynamic-graph pipeline vs a raw-numpy recomposition
    def np_ln(v, gain=None, bias=None, eps=1e-5):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        y = (v - mu) / np.sqrt(np.maximum(var, eps * eps))
        if gain is not None:
            y = y * gain
        if bias is not None:
            y = y + bias
        return y

    def np_softmax(v):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def np_sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    learner = DynamicGraphLearner(4, 5, 4, head_dim=2, n_heads=2,
                                  dropout_keep=1.0, rng=RngState(2), mode="full")
    emb = NodeEmbeddings.initialize(4, 4, 0.9, RngState(3))
    xw = rng.normal(size=(4, 5))
    got_d = learner(Tensor(xw[None]), emb, RngState(0), training=False).values.data[0]
    fu, he = learner.fusion, learner.heads
    x_t = xw @ fu.w_in.data + fu.b_in.data
    m_s = emb.m_static.data
    r = np_sigmoid(m_s @ fu.w_r.data + x_t @ fu.u_r.data)
    z = np_sigmoid(m_s @ fu.w_z.data + x_t @ fu.u_z.data)
    h_t = (1 - z) * m_s + z * np.tanh(x_t @ fu.w_h.data + r * (m_s @ fu.u_h.data))
    h_n = np_ln(h_t, he.ln_gain.data, he.ln_bias.data)
    r_t = np.zeros((4, 4))
    for i in range(he.n_heads):
        q, k = h_n @ he.w_q[i].data, h_n @ he.w_k[i].data
        r_t += float(he.head_mix[i].data) * (q @ k.T) / np.sqrt(he.head_dim)
    e_r = h_t @ he.w_res.data
    s_t = np_ln(r_t) + np_ln(e_r @ e_r.T)
    s_hat = np.maximum(0, s_t @ he.w_1.data + he.b_1.data) @ he.w_2.data + he.b_2.data
    want_d = np_softmax(np.maximum(0, np_ln(emb.m_dynamic.data @ emb.m_dynamic.data.T) + s_hat))
    ok &= np.abs(got_d - want_d).max() <= 1e-12

    # metrics vs scalar loops
    pred = rng.normal(size=(4, 3, 2))
    truth = rng.normal(size=(4, 3, 2)) + 1.0
    m = metrics(pred, truth)
    pf, tf = pred.ravel(), truth.ravel()
    mae = sum(abs(u - v) for u, v in zip(pf, tf)) / pf.size
    rmse = (sum((u - v) ** 2 for u, v in zip(pf, tf)) / pf.size) ** 0.5
    terms = [abs(u - v) / abs(v) for u, v in zip(pf, tf) if v != 0]
    ok &= abs(m["MAE"] - mae) <= 1e-12
    ok &= abs(m["RMSE"] - rmse) <= 1e-12
    ok &= abs(m["MAPE"] - sum(terms) / len(terms)) <= 1e-12

    report("algebraic oracles: regularizer double-loop 1e-12, propagation matrix "
           "powers 1e-10, attention-stack recomposition 1e-12, metric loops 1e-12", ok)
    assert ok


# -- 6. momentum contract ---------------------------------------------------------


def test_momentum_contract():
    ok = True
    emb = NodeEmbeddings.initialize(5, 4, 0.9, RngState(0))
    before = emb.m_dynamic.data.copy()

    # a real optimizer step over a loss touching both dictionaries must not
    # move the momentum-tracked copy
    t = Tape()
    with t:
        loss = ad.reduce_sum(ad.mul(emb.m_static, emb.m_static))
    t.backward(loss)
    SGD({"m_static": emb.m_static}, lr=0.1).step()
    ok &= np.array_equal(emb.m_dynamic.data, before)

    # exact update rule
    md, ms = emb.m_dynamic.data.copy(), emb.m_static.data.copy()
    momentum_update(emb)
    ok &= np.array_equal(emb.m_dynamic.data, 0.9 * md + (1 - 0.9) * ms)

    # geometric decay of the gap over 50 updates
    emb2 = NodeEmbeddings.initialize(5, 4, 0.9, RngState(1))
    emb2.m_dynamic.data = emb2.m_static.data + 3.0
    gap0 = np.abs(emb2.m_dynamic.data - emb2.m_static.data).max()
    for n in range(1, 51):
        momentum_update(emb2)
        gap = np.abs(emb2.m_dynamic.data - emb2.m_static.data).max()
        ok &= gap <= 0.9 ** n * gap0 + 1e-12
    report("momentum contract: untouched by optimizer, exact update rule, "
           "0.9^n decay to n=50 within 1e-12", ok)
    assert ok


# -- smoke-test dataset shared by criteria 7 and 9 --------------------------------


def smoke_config(**overrides):
    base = dict(n_nodes=8, window=19, horizon=3, embed_dim=16, heads=4,
                channels=16, layers=2, dropout_keep=1.0, batch_size=32,
                learning_rate=0.05, lambda_reg=0.0, seed=1)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def smoke_dataset():
    # near-noiseless so the achievable training loss is far below the
    # starting loss and a >=90% drop is a question of optimization, not of
    # an irreducible noise floor
    spec = PlantedGraphSpec(n_nodes=8, edge_prob=0.3, alpha=0.7, noise_std=0.02)
    return synth_generate(spec, 512, seed=1).dataset


# -- 7. overfit smoke test --------------------------------------------------------


def test_overfit_smoke_under_5_minutes(smoke_dataset):
    started = time.time()
    out = train(smoke_dataset, smoke_config(epochs=50))
    elapsed = time.time() - started
    first = out.history[0]["train_loss"]
    last = out.history[-1]["train_loss"]
    drop = 1 - last / first
    ok = drop >= 0.9 and elapsed < 300
    report("overfit smoke test: training loss falls >=90% over 50 epochs in under "
           "5 minutes", ok, f"drop {100 * drop:.1f}%, {elapsed:.0f}s")
    assert ok


# -- 8. graph recovery ------------------------------------------------------------

RECOVERY = dict(t_total=1536, noise_std=0.2, lambda_reg=2.0, gamma=0.001,
                epochs=25, learning_rate=0.1, batch_size=64)


def _recovery_config(seed):
    return ModelConfig(n_nodes=10, window=19, horizon=3, seed=seed,
                       lambda_reg=RECOVERY["lambda_reg"], gamma=RECOVERY["gamma"],
                       epochs=RECOVERY["epochs"], learning_rate=RECOVERY["learning_rate"],
                       batch_size=RECOVERY["batch_size"])


def test_graph_recovery_static_and_dynamic():
    static_aucs = []
    for seed in (1, 2, 3):
        spec = PlantedGraphSpec(n_nodes=10, edge_prob=0.2, alpha=0.7,
                                noise_std=RECOVERY["noise_std"])
        res = synth_generate(spec, RECOVERY["t_total"], seed=seed)
        out = train(res.dataset, _recovery_config(seed))
        a_hat = build_static_graph(out.model.embeddings.m_static).values.data
        static_aucs.append(graph_recovery_score(a_hat, res.adjacency))
    static_median = float(np.median(static_aucs))

    # switching regime: the secondary edge set is fully disjoint from the
    # primary one, and both switch intervals fall inside the training region
    # so the model sees the alternate dependency structure during fitting
    intervals = ((200, 400), (600, 800))
    diffs = []
    for seed in (1, 2, 3):
        spec = PlantedGraphSpec(n_nodes=10, edge_prob=0.2, alpha=0.7,
                                noise_std=RECOVERY["noise_std"],
                                switch_intervals=intervals,
                                switch_fraction=1.0)
        res = synth_generate(spec, RECOVERY["t_total"], seed=seed)
        out = train(res.dataset, _recovery_config(seed))
        model, scaler = out.model, out.scaler
        a_hat = build_static_graph(model.embeddings.m_static).values.data
        static_vs_secondary = graph_recovery_score(a_hat, res.secondary_adjacency)

        wins = make_windows(res.dataset.values, 19, 3)
        sel = [i for i, s in enumerate(wins.starts)
               if any(a <= s and s + 19 <= b for a, b in intervals)]
        x = scaler.transform_windows(wins.inputs[sel])
        dyn_scores = []
        for i in range(0, len(sel), 64):
            fwd = model.forward(Tensor(x[i:i + 64]), training=False)
            for mat in fwd.dynamic_graphs.values.data:
                dyn_scores.append(graph_recovery_score(mat, res.secondary_adjacency))
        diffs.append(float(np.median(dyn_scores)) - static_vs_secondary)
    dyn_median_diff = float(np.median(diffs))

    ok = static_median >= 0.8 and dyn_median_diff > 0
    report("planted-graph recovery: static adjacency median AUC >= 0.8; dynamic "
           "matrices beat the static graph on switched intervals",
           ok, f"static median {static_median:.3f}, "
               f"median dynamic-static gain {dyn_median_diff:+.3f}")
    assert ok


# -- 9. ablation consistency ------------------------------------------------------


def test_ablation_consistency(smoke_dataset):
    ok = True
    # dropping the graph loss is exactly a zero-weight run
    a = train(smoke_dataset, smoke_config(epochs=2, lambda_reg=0.3, ablation=("no_gloss",)))
    b = train(smoke_dataset, smoke_config(epochs=2, lambda_reg=0.0))
    ok &= [h["train_loss"] for h in a.history] == [h["train_loss"] for h in b.history]
    for (n1, p1), (n2, p2) in zip(sorted(a.model.parameters().items()),
                                  sorted(b.model.parameters().items())):
        ok &= n1 == n2 and np.array_equal(p1.data, p2.data)

    # the static-only model must ignore the dynamic branch entirely
    model = SDGLModel(smoke_config(epochs=1, ablation=("no_dyadj",)))
    x = np.random.default_rng(0).normal(size=(4, 8, 19))
    base = model.forward(x).prediction.data.copy()
    for tns in model.dynamic.parameters().values():
        tns.data = np.random.default_rng(1).normal(size=tns.data.shape)
    ok &= np.array_equal(model.forward(x).prediction.data, base)

    # every ablation mode trains to completion on the smoke-test dataset
    for flag in ("no_gloss", "no_dyadj", "no_ifm", "ifm_plus"):
        result = train(smoke_dataset, smoke_config(epochs=2, ablation=(flag,)))
        ok &= len(result.history) == 2
        ok &= all(np.isfinite(h["train_loss"]) for h in result.history)

    report("ablations: no_gloss identical to lambda=0, no_dyadj invariant to "
           "dynamic parameters, all four modes train to completion", ok)
    assert ok


# -- 10. determinism and persistence -----------------------------------------------


def test_determinism_and_persistence(smoke_dataset, tmp_path):
    from sdgl import checkpoint

    a = train(smoke_dataset, smoke_config(epochs=2, dropout_keep=0.9))
    b = train(smoke_dataset, smoke_config(epochs=2, dropout_keep=0.9))
    pa, pb = tmp_path / "a.sdgl", tmp_path / "b.sdgl"
    checkpoint.save(pa, a.model, a.scaler)
    checkpoint.save(pb, b.model, b.scaler)
    ok = pa.read_bytes() == pb.read_bytes()

    back = checkpoint.load(pa)
    x = np.random.default_rng(0).normal(size=(3, 8, 19))
    ok &= np.array_equal(back.model.forward(x).prediction.data,
                         a.model.forward(x).prediction.data)
    report("determinism: same seed gives byte-identical checkpoints; round-trip "
           "preserves forward outputs bit-exactly", ok)
    assert ok
