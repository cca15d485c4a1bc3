"""Message-passing layers against a scalar-loop oracle, model gradients,
permutation equivariance, and checkpoint round trips."""

import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsg import (
    CheckpointError,
    ConfigError,
    DeltaVsgModel,
    EdgeConfig,
    GraphError,
    ModelConfig,
    UsageError,
    fit_pca,
    load_checkpoint,
    save_checkpoint,
    save_scene_graph,
)
from vsg.cli import dispatch
from vsg.embedding import EmbeddedGraph
from vsg.model import MlpBaseline, MpConv, _scatter_add, graph_union
from vsg.nn_core import Mlp, ParamStore

from conftest import identity_pca, random_embedded_graph
from gradcheck import max_relative_error, numerical_gradient

GRAD_TOL = 1e-4
# Floor for full-model checks: sigmoid squashing leaves some weight
# gradients near 1e-9, where central-difference roundoff (~1e-11) would
# dominate a relative comparison against the default 1e-8 floor.
GRAD_FLOOR = 1e-6


def jitter_params(store: ParamStore, seed: int, scale: float = 0.1) -> None:
    """Nudge every parameter off its init point.

    Zero-initialized biases can leave ReLU pre-activations exactly at 0 (for
    example when a node's input row is all zeros after ReLU and dropout),
    where the analytic subgradient is 0 but a central difference straddles
    the kink. Random offsets make that a measure-zero event.
    """
    rng = np.random.default_rng(seed)
    for p in store.parameters():
        p.value += rng.normal(scale=scale, size=p.value.shape)


def mp_conv_oracle(layer: MpConv, z, edge_index, edge_features):
    """Evaluate the layer rule one node at a time with explicit loops."""
    n = z.shape[0]
    out = np.zeros((n, layer.dim))
    for i in range(n):
        out[i] = layer.f.forward(z[i : i + 1])[0][0]
        for e in range(edge_index.shape[0]):
            src, tgt = int(edge_index[e, 0]), int(edge_index[e, 1])
            if tgt != i:
                continue
            gate = layer.h.forward(edge_features[e : e + 1])[0][0]
            out[i] = out[i] + z[src] * gate
    return out


def make_layer(dim=5, edge_dim=5, hidden=8, seed=0, scalar_gate=False):
    store = ParamStore(rng_seed=seed)
    rng = np.random.default_rng(seed)
    layer = MpConv(dim, edge_dim, hidden, store, "conv", rng, scalar_gate=scalar_gate)
    return layer, store


def make_model(d_v=5, num_rel=2, hidden=8, seed=0, dropout=0.0, scalar_gate=False, kind="graph"):
    pca = identity_pca(d_v)
    args = dict(
        taxonomy_name="tiny",
        num_relationships=num_rel,
        pca=pca,
        edge_config=EdgeConfig(tau=1.0),
        hidden_dim=hidden,
        dropout_rate=dropout,
        seed=seed,
    )
    if kind == "graph":
        return DeltaVsgModel(scalar_gate=scalar_gate, **args)
    return MlpBaseline(**args)


class TestMpConv:
    def test_isolated_nodes_use_only_f(self):
        layer, _ = make_layer()
        z = np.random.default_rng(0).normal(size=(3, 5))
        empty_idx = np.zeros((0, 2), dtype=np.int64)
        empty_feat = np.zeros((0, 5))
        out, _ = layer.forward(z, empty_idx, empty_feat)
        expected, _ = layer.f.forward(z)
        npt.assert_allclose(out, expected, atol=1e-12)

    def test_matches_scalar_loop_oracle_100_graphs(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 9))
            scalar_gate = bool(seed % 4 == 3)
            layer, _ = make_layer(seed=seed, scalar_gate=scalar_gate)
            eg = random_embedded_graph(rng, n, 5, 2)
            out, _ = layer.forward(eg.node_features, eg.edge_index, eg.edge_features)
            oracle = mp_conv_oracle(layer, eg.node_features, eg.edge_index, eg.edge_features)
            assert max_relative_error(out, oracle) < 1e-12, f"seed {seed}"

    def test_message_linearity_in_source_features(self):
        # Doubling a neighbor's features exactly doubles its message.
        layer, _ = make_layer(seed=1)
        rng = np.random.default_rng(1)
        z = rng.normal(size=(2, 5))
        idx = np.array([[1, 0]], dtype=np.int64)
        feat = rng.normal(size=(1, 5))
        out1, _ = layer.forward(z, idx, feat)
        self_part = layer.f.forward(z[:1])[0][0]
        z2 = z.copy()
        z2[1] *= 2.0
        out2, _ = layer.forward(z2, idx, feat)
        npt.assert_allclose(out2[0] - self_part, 2.0 * (out1[0] - self_part), atol=1e-12)

    def test_two_mutually_connected_nodes_sum(self):
        # With f forced to identity and h forced to emit ones, out_i = z_i + z_j.
        layer, store = make_layer(dim=3, edge_dim=5, hidden=4, seed=0)
        for name in store.names():
            store[name].value[...] = 0.0
        # f: output = W1 @ relu(W0 @ z); make it pass z through via both layers.
        store["conv.f.W0"].value[:3, :3] = np.eye(3)
        store["conv.f.W0"].value[:3, 3:] = 0.0
        store["conv.f.W1"].value[:3, :3] = np.eye(3)
        # Identity only holds for non-negative z, so use positive inputs.
        store["conv.h.b1"].value[...] = 1.0
        z = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        idx = np.array([[0, 1], [1, 0]], dtype=np.int64)
        feat = np.zeros((2, 5))
        out, _ = layer.forward(z, idx, feat)
        npt.assert_allclose(out[0], z[0] + z[1], atol=1e-12)
        npt.assert_allclose(out[1], z[1] + z[0], atol=1e-12)

    def test_edge_index_out_of_range(self):
        layer, _ = make_layer()
        z = np.zeros((2, 5))
        idx = np.array([[0, 2]], dtype=np.int64)
        with pytest.raises(GraphError):
            layer.forward(z, idx, np.zeros((1, 5)))

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            layer, store = make_layer(seed=seed, scalar_gate=bool(seed % 2))
            eg = random_embedded_graph(rng, 4, 5, 2)
            target = rng.normal(size=(4, 5))

            def loss_fn():
                out, _ = layer.forward(eg.node_features, eg.edge_index, eg.edge_features)
                return 0.5 * float(((out - target) ** 2).sum())

            out, cache = layer.forward(eg.node_features, eg.edge_index, eg.edge_features)
            store.zero_grads()
            dz = layer.backward(cache, out - target)
            for p in store.parameters():
                num = numerical_gradient(lambda v: loss_fn(), p.value)
                assert max_relative_error(p.grad, num) < GRAD_TOL, f"{seed} {p.name}"

            def loss_of_z(zv):
                out, _ = layer.forward(zv, eg.edge_index, eg.edge_features)
                return 0.5 * float(((out - target) ** 2).sum())

            num_dz = numerical_gradient(loss_of_z, eg.node_features)
            assert max_relative_error(dz, num_dz) < GRAD_TOL


def scatter_add_reference(base, index, rows):
    """MpConv's scatter before `_scatter_add`: a copy of base, then np.add.at."""
    out = np.array(base, copy=True)
    np.add.at(out, index, rows)
    return out


@st.composite
def scatter_cases(draw):
    """Message-sum inputs: up to 40 nodes, 30 channels and 200 edges."""
    n = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.integers(min_value=1, max_value=30))
    e = draw(st.integers(min_value=0, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # Few distinct targets give long runs of repeated indices.
    index = rng.integers(0, draw(st.integers(min_value=1, max_value=n)), size=e)
    base = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    z_src = rng.normal(size=(e, d)) * 10.0 ** rng.uniform(-3, 3, size=(e, 1))
    gate_dim = 1 if draw(st.booleans()) else d  # a scalar gate broadcasts
    rows = z_src * rng.normal(size=(e, gate_dim))
    # Exact zeros of both signs, as dead ReLUs and masked nodes give.
    zero_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    for a in (base, rows):
        hit = rng.random(a.shape) < zero_share
        a[hit] = np.copysign(0.0, rng.normal(size=int(hit.sum())))
    return base, index, rows


class TestScatterAdd:
    @settings(max_examples=300, deadline=None)
    @given(case=scatter_cases())
    def test_matches_add_at_byte_for_byte(self, case):
        base, index, rows = case
        got = _scatter_add(base, index, rows)
        # bincount's bins start at +0.0, so a sum of only -0.0 terms is +0.0;
        # adding 0.0 to the reference changes that case and no other bit.
        want = scatter_add_reference(base, index, rows) + 0.0
        assert got.shape == base.shape and got.dtype == np.float64
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_negative_zero_sum_comes_back_positive(self):
        base = np.array([[-0.0, -0.0, 1.0]])
        rows = np.array([[-0.0, 0.0, -1.0]])
        got = _scatter_add(base, np.array([0]), rows)
        npt.assert_array_equal(np.signbit(got), [[False, False, False]])
        npt.assert_array_equal(got, [[0.0, 0.0, 0.0]])


class TestSkippedInputGradient:
    """`input_grad=False` returns None and leaves every parameter gradient
    bit-identical to the full backward."""

    @staticmethod
    def _both_ways(store, backward):
        store.zero_grads()
        full = backward(True)
        full_grads = store.grads.copy()
        store.zero_grads()
        assert backward(False) is None
        npt.assert_array_equal(store.grads.view(np.int64), full_grads.view(np.int64))
        return full

    @pytest.mark.parametrize("sizes", [[4, 3], [4, 6, 3], [4, 6, 5, 3]])
    def test_mlp(self, sizes):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            store = ParamStore()
            net = Mlp(sizes, store, "net", rng)
            for x in (rng.normal(size=(7, 4)), rng.normal(size=(1, 4))):
                y, cache = net.forward(x)
                dy = rng.normal(size=y.shape)
                dx = self._both_ways(store, lambda g: net.backward(cache, dy, input_grad=g))
                assert dx.shape == x.shape

    @pytest.mark.parametrize("scalar_gate", [False, True])
    def test_mp_conv(self, scalar_gate):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            layer, store = make_layer(seed=seed, scalar_gate=scalar_gate)
            eg = random_embedded_graph(rng, int(rng.integers(1, 9)), 5, 2)
            out, cache = layer.forward(eg.node_features, eg.edge_index, eg.edge_features)
            dout = rng.normal(size=out.shape)
            dz = self._both_ways(store, lambda g: layer.backward(cache, dout, input_grad=g))
            assert dz.shape == eg.node_features.shape


class TestGraphUnion:
    def test_edge_index_checked_against_its_own_graph(self):
        rng = np.random.default_rng(0)
        first, second = random_embedded_graph(rng, 4, 5, 2), random_embedded_graph(rng, 3, 5, 2)
        graph_union([first, second])
        # Node 3 of a 3-node graph: offset in the union, it would be row 7,
        # the third graph's first node, so the check runs before the offset.
        index = second.edge_index.copy()
        index[-1, 1] = second.num_nodes
        bad = EmbeddedGraph(second.node_features, index, second.edge_features, second.node_ids)
        with pytest.raises(GraphError, match="out of range"):
            graph_union([first, bad, first])

    def test_empty_union_refused(self):
        with pytest.raises(UsageError, match="^a graph union needs at least one graph$"):
            graph_union([])

    @pytest.mark.parametrize("kind", ["graph", "mlp"])
    def test_union_predicts_each_graph_as_alone(self, kind):
        rng = np.random.default_rng(1)
        model = make_model(seed=2, kind=kind, scalar_gate=True)
        graphs = [random_embedded_graph(rng, n, 5, 2) for n in (5, 1, 0, 7, 3)]
        probs, cache = model.forward(graph_union(graphs), mode="eval")
        assert cache is None
        alone = np.concatenate([model.forward(g, mode="eval")[0] for g in graphs])
        npt.assert_array_equal(probs.view(np.int64), alone.view(np.int64))


class TestDeltaVsgModel:
    def test_outputs_are_probabilities(self):
        model = make_model()
        eg = random_embedded_graph(np.random.default_rng(0), 6, 5, 2)
        probs, _ = model.forward(eg, mode="eval")
        assert probs.shape == (6, 3)
        assert np.all((probs > 0) & (probs < 1))

    def test_eval_mode_deterministic(self):
        model = make_model(dropout=0.5)
        eg = random_embedded_graph(np.random.default_rng(1), 5, 5, 2)
        p1, _ = model.forward(eg, mode="eval")
        p2, _ = model.forward(eg, mode="eval")
        npt.assert_array_equal(p1, p2)

    def test_permutation_equivariance(self):
        model = make_model(seed=3)
        rng = np.random.default_rng(3)
        eg = random_embedded_graph(rng, 7, 5, 2)
        perm = rng.permutation(7)
        inverse = np.argsort(perm)
        permuted = EmbeddedGraph(
            node_features=eg.node_features[perm],
            edge_index=inverse[eg.edge_index] if eg.num_edges else eg.edge_index,
            edge_features=eg.edge_features,
            node_ids=tuple(eg.node_ids[k] for k in perm),
        )
        base, _ = model.forward(eg, mode="eval")
        shuffled, _ = model.forward(permuted, mode="eval")
        npt.assert_allclose(shuffled, base[perm], atol=1e-12)

    def test_isolated_node_depends_only_on_itself(self):
        model = make_model(seed=4)
        rng = np.random.default_rng(4)
        features = rng.normal(size=(3, 5))
        no_edges = EmbeddedGraph(
            node_features=features,
            edge_index=np.zeros((0, 2), dtype=np.int64),
            edge_features=np.zeros((0, 5)),
            node_ids=("a", "b", "c"),
        )
        base, _ = model.forward(no_edges, mode="eval")
        features2 = features.copy()
        features2[1] += 10.0
        changed, _ = model.forward(
            EmbeddedGraph(features2, no_edges.edge_index, no_edges.edge_features, ("a", "b", "c")),
            mode="eval",
        )
        npt.assert_array_equal(changed[0], base[0])
        npt.assert_array_equal(changed[2], base[2])
        assert not np.allclose(changed[1], base[1])

    def test_full_model_gradients(self):
        for seed in range(5):
            rng = np.random.default_rng(seed + 100)
            model = make_model(seed=seed, dropout=0.0, scalar_gate=bool(seed % 2))
            jitter_params(model.store, seed)
            eg = random_embedded_graph(rng, 5, 5, 2)
            target = rng.uniform(0.2, 0.8, size=(5, 3))

            def loss_fn():
                probs, _ = model.forward(eg, mode="train", rng=np.random.default_rng(0))
                return 0.5 * float(((probs - target) ** 2).sum())

            probs, cache = model.forward(eg, mode="train", rng=np.random.default_rng(0))
            model.store.zero_grads()
            model.backward(cache, probs - target)
            for p in model.store.parameters():
                num = numerical_gradient(lambda v: loss_fn(), p.value)
                err = max_relative_error(p.grad, num, floor=GRAD_FLOOR)
                assert err < GRAD_TOL, f"{seed} {p.name}"

    def test_dropout_gradients_with_fixed_mask(self):
        # Same dropout rng seed per evaluation makes the loss deterministic,
        # so finite differences remain valid with dropout active.
        rng = np.random.default_rng(42)
        model = make_model(seed=9, dropout=0.3)
        jitter_params(model.store, 9)
        eg = random_embedded_graph(rng, 4, 5, 2)
        target = rng.uniform(0.2, 0.8, size=(4, 3))

        def loss_fn():
            probs, _ = model.forward(eg, mode="train", rng=np.random.default_rng(5))
            return 0.5 * float(((probs - target) ** 2).sum())

        probs, cache = model.forward(eg, mode="train", rng=np.random.default_rng(5))
        model.store.zero_grads()
        model.backward(cache, probs - target)
        for p in model.store.parameters():
            num = numerical_gradient(lambda v: loss_fn(), p.value)
            assert max_relative_error(p.grad, num, floor=GRAD_FLOOR) < GRAD_TOL, p.name

    def test_backward_rejects_eval_cache(self):
        model = make_model()
        eg = random_embedded_graph(np.random.default_rng(0), 3, 5, 2)
        probs, cache = model.forward(eg, mode="eval")
        with pytest.raises(UsageError):
            model.backward(cache, np.zeros_like(probs))

    def test_zero_upstream_gives_zero_grads(self):
        model = make_model()
        eg = random_embedded_graph(np.random.default_rng(0), 3, 5, 2)
        probs, cache = model.forward(eg, mode="train", rng=np.random.default_rng(0))
        model.store.zero_grads()
        model.backward(cache, np.zeros_like(probs))
        for p in model.store.parameters():
            npt.assert_array_equal(p.grad, np.zeros_like(p.grad))

    def test_h_grads_vanish_without_edges(self):
        model = make_model()
        eg = EmbeddedGraph(
            node_features=np.random.default_rng(0).normal(size=(3, 5)),
            edge_index=np.zeros((0, 2), dtype=np.int64),
            edge_features=np.zeros((0, 5)),
            node_ids=("a", "b", "c"),
        )
        probs, cache = model.forward(eg, mode="train", rng=np.random.default_rng(0))
        model.store.zero_grads()
        model.backward(cache, np.ones_like(probs))
        for name in model.store.names():
            if ".h." in name:
                npt.assert_array_equal(model.store[name].grad, 0.0)
            elif name.startswith("head.W"):
                assert np.any(model.store[name].grad != 0.0)


class TestMlpBaseline:
    def test_invariant_to_edges(self):
        model = make_model(kind="mlp")
        rng = np.random.default_rng(0)
        eg = random_embedded_graph(rng, 5, 5, 2)
        no_edges = EmbeddedGraph(
            node_features=eg.node_features,
            edge_index=np.zeros((0, 2), dtype=np.int64),
            edge_features=np.zeros((0, 5)),
            node_ids=eg.node_ids,
        )
        p1, _ = model.forward(eg, mode="eval")
        p2, _ = model.forward(no_edges, mode="eval")
        npt.assert_array_equal(p1, p2)
        assert np.all((p1 > 0) & (p1 < 1))

    def test_gradients(self):
        rng = np.random.default_rng(11)
        model = make_model(kind="mlp", seed=11)
        eg = random_embedded_graph(rng, 4, 5, 2)
        target = rng.uniform(0.2, 0.8, size=(4, 3))

        def loss_fn():
            probs, _ = model.forward(eg, mode="train")
            return 0.5 * float(((probs - target) ** 2).sum())

        probs, cache = model.forward(eg, mode="train")
        model.store.zero_grads()
        model.backward(cache, probs - target)
        for p in model.store.parameters():
            num = numerical_gradient(lambda v: loss_fn(), p.value)
            assert max_relative_error(p.grad, num, floor=GRAD_FLOOR) < GRAD_TOL, p.name


class TestCheckpoints:
    def _fitted_model(self, tiny_tax, scalar_gate=False, kind="graph", dropout_rate=0.2):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(30, tiny_tax.num_classes + tiny_tax.num_attributes))
        pca = fit_pca(data, 4)
        args = dict(
            taxonomy_name=tiny_tax.name,
            num_relationships=tiny_tax.num_relationships,
            pca=pca,
            edge_config=EdgeConfig(tau=1.7),
            hidden_dim=8,
            dropout_rate=dropout_rate,
            seed=5,
        )
        if kind == "graph":
            return DeltaVsgModel(scalar_gate=scalar_gate, **args)
        return MlpBaseline(**args)

    @pytest.mark.parametrize(
        "scalar_gate, kind",
        [(False, "graph"), (True, "graph"), (False, "mlp")],
        ids=["deltavsg", "deltavsg-scalar-gate", "mlp_baseline"],
    )
    def test_round_trip_bit_exact(self, tiny_tax, tmp_path, scalar_gate, kind):
        model = self._fitted_model(tiny_tax, scalar_gate=scalar_gate, kind=kind)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, tiny_tax, p1)
        loaded, tax = load_checkpoint(p1)
        save_checkpoint(loaded, tax, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert tax == tiny_tax
        for name in model.store.names():
            npt.assert_array_equal(loaded.store[name].value, model.store[name].value)
        assert loaded.edge_config == model.edge_config
        npt.assert_array_equal(loaded.pca.components, model.pca.components)

    def test_predictions_survive_round_trip(self, tiny_tax, small_graph, tmp_path):
        model = self._fitted_model(tiny_tax)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        loaded, tax = load_checkpoint(path)
        before = model.predict_probabilities(small_graph, tiny_tax)
        after = loaded.predict_probabilities(small_graph, tax)
        assert before == after

    def test_baseline_round_trip(self, tiny_tax, tmp_path):
        model = self._fitted_model(tiny_tax, kind="mlp")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        loaded, _ = load_checkpoint(path)
        assert isinstance(loaded, MlpBaseline)
        for name in model.store.names():
            npt.assert_array_equal(loaded.store[name].value, model.store[name].value)

    def test_truncated_file_rejected(self, tiny_tax, tmp_path):
        model = self._fitted_model(tiny_tax)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tiny_tax, tmp_path):
        model = self._fitted_model(tiny_tax)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        data = json.loads(path.read_text())
        data["format_version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tiny_tax, tmp_path):
        model = self._fitted_model(tiny_tax)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        data = json.loads(path.read_text())
        del data["parameters"]["head.W0"]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="head.W0"):
            load_checkpoint(path)

    def test_unknown_model_kind_rejected(self, tiny_tax, tmp_path):
        model = self._fitted_model(tiny_tax)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        data = json.loads(path.read_text())
        data["model_kind"] = "transformer"
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="transformer") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_missing_hyperparameter_rejected(self, tiny_tax, tmp_path):
        model = self._fitted_model(tiny_tax)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        data = json.loads(path.read_text())
        del data["hyperparameters"]["scalar_gate"]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="scalar_gate"):
            load_checkpoint(path)

    def test_wrong_taxonomy_rejected_at_predict(self, tiny_tax, small_graph, tmp_path):
        model = self._fitted_model(tiny_tax)
        other = make_other_taxonomy()
        with pytest.raises(CheckpointError):
            model.predict_probabilities(small_graph, other)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_is_refused_and_no_file_is_written(self, tiny_tax, tmp_path, bad):
        """save_checkpoint refuses what load_checkpoint would refuse, before opening the file."""
        model = self._fitted_model(tiny_tax)
        model.store["head.W0"].value[0, 0] = bad
        path = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_checkpoint(model, tiny_tax, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["conv1.f.W0", "head.b0", "mean", "components", "explained_variance_ratio"]
    )
    def test_non_finite_value_rejected(self, tiny_tax, tmp_path, field, bad):
        model = self._fitted_model(tiny_tax)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        data = json.loads(path.read_text())
        section = "parameters" if field in data["parameters"] else "pca"
        arr = np.array(data[section][field])
        arr.flat[arr.size // 2] = bad
        data[section][field] = arr.tolist()
        path.write_text(json.dumps(data))  # json writes NaN / Infinity literals
        with pytest.raises(CheckpointError, match="non-finite") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and field in str(err.value)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("mean", lambda d: d["pca"]["mean"].append(0.0)),
            ("components", lambda d: [row.append(0.0) for row in d["pca"]["components"]]),
            ("explained_variance_ratio", lambda d: d["pca"]["explained_variance_ratio"].pop()),
            ("d_v", lambda d: d["hyperparameters"].update(d_v=99)),
            ("num_relationships", lambda d: d["hyperparameters"].update(
                num_relationships=d["hyperparameters"]["num_relationships"] + 1)),
        ],
        ids=["mean", "components", "explained_variance_ratio", "d_v", "num_relationships"],
    )
    def test_shape_disagreeing_with_taxonomy_rejected(self, tiny_tax, tmp_path, field, edit):
        model = self._fitted_model(tiny_tax)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match=field) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("edge_config", "include_semantic_edges", "false"),
            ("edge_config", "tau", "2.0"),
            ("hyperparameters", "hidden_dim", 8.9),
            ("hyperparameters", "dropout_rate", True),
            ("hyperparameters", "rng_seed", 0.5),
            ("hyperparameters", "scalar_gate", "false"),
            ("pca", "d_v", 4.0),
            ("pca", "rank", "4"),
        ],
        ids=["include_semantic_edges", "tau", "hidden_dim", "dropout_rate", "rng_seed",
             "scalar_gate", "pca-d_v", "pca-rank"],
    )
    def test_wrongly_typed_setting_rejected(self, tiny_tax, tmp_path, section, key, value):
        model = self._fitted_model(tiny_tax)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        data = json.loads(path.read_text())
        data[section][key] = value
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match=key) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_missing_edge_setting_rejected(self, tiny_tax, tmp_path):
        model = self._fitted_model(tiny_tax)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        data = json.loads(path.read_text())
        del data["edge_config"]["tau"]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="tau"):
            load_checkpoint(path)

    def test_integer_dropout_rate_round_trip_bit_exact(self, tiny_tax, tmp_path):
        model = self._fitted_model(tiny_tax, dropout_rate=0)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, tiny_tax, p1)
        save_checkpoint(*load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bad", [1.5, -0.5])
    @pytest.mark.parametrize("kind", ["graph", "mlp"], ids=["deltavsg", "mlp_baseline"])
    def test_out_of_range_dropout_rate_rejected(
        self, tiny_tax, small_graph, tmp_path, capsys, kind, bad
    ):
        path, scene, out = tmp_path / "m.ckpt", tmp_path / "scene.json", tmp_path / "out.json"
        save_checkpoint(self._fitted_model(tiny_tax, kind=kind), tiny_tax, path)
        data = json.loads(path.read_text())
        data["hyperparameters"]["dropout_rate"] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="dropout rate") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
        save_scene_graph(small_graph, tiny_tax, scene)
        rc = dispatch(["predict", "--ckpt", str(path), "--scene", str(scene), "--out", str(out)])
        stdout, stderr = capsys.readouterr()
        assert rc == 1 and "resolved-config:" not in stdout and not out.exists()
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: CheckpointError: {path}"), lines

    def test_scalar_gate_round_trip(self, tiny_tax, tmp_path):
        model = self._fitted_model(tiny_tax, scalar_gate=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, tiny_tax, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.scalar_gate is True


class TestModelConfig:
    @pytest.mark.parametrize("tau, expected", [("p50", "p50"), ("1.5", 1.5), (2, 2.0), (0.0, 0.0)])
    def test_tau_is_a_preset_or_meters(self, tau, expected):
        got = ModelConfig(tau=tau).tau
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("tau", ["p80", "-1", -2, "nan", float("nan"), "inf", "", True, None])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(ConfigError, match="tau"):
            ModelConfig(tau=tau)

    def test_scalar_gate_on_the_baseline_rejected(self):
        with pytest.raises(ConfigError, match="scalar_gate"):
            ModelConfig(kind="mlp_baseline", scalar_gate=True)

    @pytest.mark.parametrize("field", ["d_v", "hidden_dim"])
    def test_fractional_width_refused_before_any_training(self, field):
        # Else a model trains whose checkpoint load_checkpoint refuses.
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got 2.5"):
            ModelConfig(**{field: 2.5})


def make_other_taxonomy():
    from vsg import Taxonomy

    return Taxonomy(
        name="other",
        classes=("thing",),
        attributes=(("open", "state"),),
        relationships=("near",),
    )
