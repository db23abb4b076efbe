import collections
import copy
import hashlib
import json
from dataclasses import FrozenInstanceError, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from evadapt import cli, encoder, synth
from evadapt.autodiff import Tensor
from evadapt.cli import _PARAM_ROWS, RunConfig, load_config, load_run, main
from evadapt.encoder import (VIT_B, TrainablePlan, ViTConfig, init_params,
                             param_shapes, trainable_shapes)
from evadapt.io import ConfigError, from_doc, read_dump, write_dump, write_masks
from evadapt.metrics import MaskSet, compute_report
from evadapt.trainer import TrainState, load_checkpoint, save_checkpoint

TINY_DOC = {
    "seed": 0,
    "model": {"img_size": 8, "patch_size": 4, "embed_dim": 8, "depth": 2,
              "num_heads": 2, "mlp_hidden": 16},
    "distill": {"layers": [0, 1, 2], "gammas": [0.5, 1.0],
                "mixing_ratio": 0.25},
    "train": {"epochs": 1, "steps_per_epoch": 4, "batch_size": 1,
              "lr": 1e-3, "decay_epoch": 1},
    "plan": {"mode": "embed+mlps", "layers": [1, 2]},
    "scene": {"height": 8, "width": 8, "num_samples": 2, "num_shapes": 1},
}

# the header of a 2x2 mask file
G2 = "# H=2 W=2\n"


@pytest.fixture
def config(tmp_path):
    p = tmp_path / "config.yaml"
    p.write_text(yaml.safe_dump(TINY_DOC))
    return str(p)


class TestTrainEval:
    def test_end_to_end(self, tmp_path, config, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        assert (out / "checkpoint.evdt").exists()
        assert (out / "loss.csv").exists()
        assert (out / "config.resolved.yaml").exists()
        header = (out / "loss.csv").read_text().splitlines()[0]
        assert header.startswith("step,")

        report = tmp_path / "report.json"
        assert main(["eval", "--config", config,
                     "--checkpoint", str(out / "checkpoint.evdt"),
                     "--out", str(report)]) == 0
        got = json.loads(report.read_text())
        agg = got["aggregate"]
        assert agg["frames"] == 2
        for k in ("mP", "mR", "mIoU", "aIoU"):
            assert 0.0 <= agg[k] <= 1.0
        assert len(got["frames"]) == 2

    def test_tiny_profile_eval_bytes_pinned(self, tmp_path, capsys):
        # README's quick start: the eval report of configs/tiny.yaml, whose
        # every mask goes through predict_masks, ground_truth_masks and the
        # overlap table, byte for byte as the per-mask code wrote it
        config = str(Path(__file__).resolve().parents[1] / "configs"
                     / "tiny.yaml")
        out = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        report = tmp_path / "eval.json"
        assert main(["eval", "--config", config,
                     "--checkpoint", str(out / "checkpoint.evdt"),
                     "--out", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "b20f44438c97cb8c5758605cde7a6427036c30ebbd30a530d59452019ff90b58")

    def test_lora_end_to_end(self, tmp_path, capsys):
        doc = copy.deepcopy(TINY_DOC)
        doc["plan"] = {"mode": "embed+blocks", "layers": [1, 2],
                       "lora_rank": 2}
        config = tmp_path / "lora.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        tensors, meta = read_dump(out / "checkpoint.evdt")
        assert meta["plan"] == doc["plan"]
        assert "param.block.2.qkv.lora_a" in tensors
        assert tensors["adam.m.block.1.proj.lora_b"].shape == (8, 2)
        report = tmp_path / "report.json"
        assert main(["eval", "--config", str(config),
                     "--checkpoint", str(out / "checkpoint.evdt"),
                     "--out", str(report)]) == 0
        assert json.loads(report.read_text())["aggregate"]["frames"] == 2

    def test_mismatched_shapes_rejected(self, tmp_path, config, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        other = dict(TINY_DOC)
        other["model"] = dict(TINY_DOC["model"], mlp_hidden=32)
        p2 = tmp_path / "other.yaml"
        p2.write_text(yaml.safe_dump(other))
        assert main(["eval", "--config", str(p2),
                     "--checkpoint", str(out / "checkpoint.evdt")]) == 1
        assert capsys.readouterr().err == (
            "error: model.mlp_hidden of config and checkpoint differ: "
            "32 and 16\n")


class TestPredictMasks:
    def test_prediction_records_no_graph(self, tmp_path, monkeypatch):
        # a reloaded embed+all_mlps checkpoint: load_checkpoint marks the
        # plan's entries trainable, and prediction must still read the
        # same arrays without recording a graph
        config = ViTConfig(img_size=16, patch_size=4, embed_dim=8, depth=2,
                           num_heads=2, mlp_hidden=16)
        plan = TrainablePlan(mode="embed+all_mlps")
        state = TrainState.create(init_params(config, seed=3).copy(), plan)
        head = cli.init_head(config.embed_dim, 3)
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, state, extra_tensors=head)
        model = load_checkpoint(ck)[0].params
        assert {k for k, t in model.tensors.items() if t.requires_grad} \
            == set(trainable_shapes(config, plan))
        volume = np.random.default_rng(4).normal(size=(16, 16, 3))

        calls, inputs, params = [], [], []
        for name in ("attention", "mlp", "affine", "layernorm"):
            def spy(*args, _name=name, _op=getattr(encoder, name), **kwargs):
                calls.append(_name)
                inputs.append(args[0])
                params.extend(a for a in args[1:] if isinstance(a, Tensor))
                return _op(*args, **kwargs)
            monkeypatch.setattr(encoder, name, spy)
        views, stacks = [], []
        monkeypatch.setattr(cli, "forward_capture", lambda params, image: (
            views.append(params) or encoder.forward_capture(params, image)))
        monkeypatch.setattr(cli, "MaskSet", lambda masks: (
            stacks.append(masks) or MaskSet(masks=masks)))
        pred = cli.predict_masks(model, head, volume)
        (view,) = views
        assert list(view.tensors) == list(model.tensors)
        assert all(t.data is model.tensors[k].data and not t.requires_grad
                   for k, t in view.tensors.items())
        assert collections.Counter(calls) == {
            "attention": 2, "mlp": 2, "affine": 5, "layernorm": 4}
        assert not any(x.requires_grad for x in inputs + params)
        assert len(params) == 5 * 2 + 2 * 4 + 4 * 2 and all(
            any(np.shares_memory(p.data, t.data)
                for t in model.tensors.values()) for p in params)
        # the pixel stack predict_masks builds is the set's, not a copy
        assert pred.masks is stacks[0]

        # the graph-recording forward on the marked entries gives the same
        # masks bit for bit
        monkeypatch.undo()
        recorded = []

        def recording(params, image):
            capture = encoder.forward_capture(params, image)
            recorded.append(capture.embeddings[-1].requires_grad)
            return capture
        monkeypatch.setattr(cli, "forward_capture", recording)
        monkeypatch.setattr(encoder.ViTParams, "frozen", lambda self: self)
        want = cli.predict_masks(model, head, volume)
        assert recorded == [True]
        assert pred.ids == want.ids
        assert pred.masks.tobytes() == want.masks.tobytes()

    def test_no_foreground_token_is_an_empty_set(self):
        # a head that marks no token returned None, which each caller had
        # to turn into an empty set before scoring it
        config = ViTConfig(img_size=16, patch_size=4, embed_dim=8, depth=2,
                           num_heads=2, mlp_hidden=16)
        head = {"head.w": np.zeros(8), "head.b": np.array([-1.0])}
        volume = np.random.default_rng(4).normal(size=(16, 16, 3))
        pred = cli.predict_masks(init_params(config, seed=3), head, volume)
        assert pred.masks.shape == (0, 16, 16) and pred.ids == []
        gt = MaskSet(masks=[np.eye(16, dtype=bool), ~np.eye(16, dtype=bool)])
        r = compute_report(gt, pred)
        assert (r.tp, r.fp, r.fn) == (0, 0, len(gt))


class TestEvalMaskDirs:
    def test_rle_comparison(self, tmp_path, capsys):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        m = np.zeros((4, 4), dtype=bool)
        m[:2, :2] = True
        write_masks(gt_dir / "a.rle", [m], [0], m.shape)
        write_masks(pred_dir / "a.rle", [m], [0], m.shape)
        # no matching prediction
        write_masks(gt_dir / "b.rle", [m], [0], m.shape)
        out = tmp_path / "r.json"
        assert main(["eval", "--gt-dir", str(gt_dir),
                     "--pred-dir", str(pred_dir), "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        assert got["aggregate"]["frames"] == 2
        assert got["aggregate"]["mIoU"] == pytest.approx(0.5)
        # without --out the same report goes to stdout
        capsys.readouterr()
        assert main(["eval", "--gt-dir", str(gt_dir),
                     "--pred-dir", str(pred_dir)]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_header_only_pred_file_scores_as_missing(self, tmp_path):
        # both score every ground-truth instance as a false negative
        m = np.zeros((4, 4), dtype=bool)
        m[:2, :2] = True
        reports = []
        for case in ("missing", "header-only"):
            gt_dir, pred_dir = tmp_path / case / "gt", tmp_path / case / "pred"
            gt_dir.mkdir(parents=True)
            pred_dir.mkdir()
            write_masks(gt_dir / "a.rle", [m, ~m], [0, 1], m.shape)
            if case == "header-only":
                write_masks(pred_dir / "a.rle", [], [], m.shape)
                assert (pred_dir / "a.rle").read_text() == "# H=4 W=4\n"
            out = tmp_path / case / "r.json"
            assert main(["eval", "--gt-dir", str(gt_dir),
                         "--pred-dir", str(pred_dir), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["aggregate"] == {
            "frames": 1, "mP": 0.0, "mR": 0.0, "mIoU": 0.0, "aIoU": 0.0,
            "tp": 0, "fp": 0, "fn": 2}

    @pytest.mark.parametrize("case", ["missing", "header-only"])
    def test_empty_prediction_is_a_0_h_w_stack(self, tmp_path, monkeypatch,
                                                case):
        # both were (0,) stacks while predict_masks gave (0, H, W)
        m = np.zeros((4, 5), dtype=bool)
        m[:2, :2] = True
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        write_masks(tmp_path / "gt" / "a.rle", [m], [0], m.shape)
        if case == "header-only":
            write_masks(tmp_path / "pred" / "a.rle", [], [], m.shape)
        seen = []
        monkeypatch.setattr(cli, "_write_report",
                            lambda path, frames: seen.extend(frames))
        assert main(["eval", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred")]) == 0
        (_, _, pred), = seen
        assert pred.masks.dtype == bool and pred.masks.shape == (0, 4, 5)

    def test_no_masks_found(self, tmp_path, capsys):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        assert main(["eval", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred")]) == 2

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_pred_dir_must_be_a_directory(self, tmp_path, capsys, kind):
        # a missing --pred-dir used to score every frame as an empty
        # prediction and exit 0
        (tmp_path / "gt").mkdir()
        write_masks(tmp_path / "gt" / "a.rle", [np.ones((2, 2), bool)], [0],
                    (2, 2))
        pred = tmp_path / "pred"
        if kind == "file":
            pred.write_text("")
        assert main(["eval", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(pred)]) == 2
        err = capsys.readouterr().err
        assert err == f"eval: --pred-dir {pred} is not a directory\n"

    @pytest.mark.parametrize("gt, pred, bad, message", [
        (G2 + "0: 0,1\n", G2 + "x: 0,1\n", "pred",
         "line 2: expected 'id: start,len ...'"),
        (G2 + "0: 0,1\n1:\n", G2 + "0: 0,1\n", "gt", "mask 1 is empty"),
        (G2 + "0: 0,1\n", "# H=2 W=3\n0: 0,1\n", "pred",
         "gt and pred mask dimensions differ"),
        (G2, G2 + "0: 0,1\n", "gt", "ground-truth mask set is empty"),
        (G2 + "0: 0,1\n0: 1,1\n", G2 + "0: 0,1\n", "gt",
         "line 3: mask id 0 repeats line 2"),
    ], ids=["malformed", "empty-instance", "grid-differs", "empty-gt",
            "repeated-id"])
    def test_error_names_its_file(self, tmp_path, capsys, gt, pred, bad,
                                  message):
        # each of these used to print its message without saying which
        # file it came from; a repeated id was scored as two instances
        for d, text in (("gt", gt), ("pred", pred)):
            (tmp_path / d).mkdir()
            (tmp_path / d / "a.rle").write_text(text)
        assert main(["eval", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred")]) == 1
        assert capsys.readouterr().err == \
            f"error: {tmp_path / bad / 'a.rle'}: {message}\n"

    def test_eval_without_inputs(self, capsys):
        assert main(["eval"]) == 2

    @pytest.mark.parametrize("flag", ["--pred-dir", "--gt-dir"])
    def test_one_mask_dir_is_usage_error(self, tmp_path, capsys, flag):
        # --pred-dir alone used to list the working directory and end in
        # a TypeError traceback
        (tmp_path / "a.rle").write_text("# H=2 W=2\n0: 0,1\n")
        assert main(["eval", flag, str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("eval: need ") and err.count("\n") == 1


class TestSignificance:
    def test_csv_output(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        mats = {}
        for i in range(3):
            a = rng.random((4, 4)) + 1e-3
            mats[f"layer_{i}"] = a / a.sum(axis=1, keepdims=True)
        dump = tmp_path / "attn.evdt"
        write_dump(dump, mats)
        out = tmp_path / "sig.csv"
        assert main(["significance", "--attn", str(dump),
                     "--layer", "1", "--beta", "0.5",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,index,value"
        sig = [float(l.split(",")[2]) for l in lines[1:]
               if l.startswith("significance")]
        assert len(sig) == 4
        assert sum(sig) == pytest.approx(4.0, abs=1e-6)
        gaps = [float(l.split(",")[2]) for l in lines[1:]
                if l.startswith("prefix_gap")]
        assert len(gaps) == 3 and gaps[-1] == 0.0

    def test_layer_past_the_stack_named(self, tmp_path, capsys):
        dump = tmp_path / "attn.evdt"
        write_dump(dump, {f"block.{i}": np.full((4, 4), 0.25)
                          for i in (1, 2, 3)})
        assert main(["significance", "--attn", str(dump),
                     "--layer", "4"]) == 1
        assert capsys.readouterr().err == \
            "error: source layer 4 out of range 1..3\n"

    def test_non_square_rejected(self, tmp_path, capsys):
        dump = tmp_path / "attn.evdt"
        write_dump(dump, {"x": np.zeros((2, 3))})
        assert main(["significance", "--attn", str(dump)]) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25])
    def test_bad_attention_names_entry(self, tmp_path, capsys, bad):
        # NaN used to write nan weights and a negative entry all-zero
        # weights, both with exit status 0
        a = np.full((3, 3), 1 / 3)
        b = a.copy()
        b[2, 1] = bad
        dump = tmp_path / "attn.evdt"
        write_dump(dump, {"layer_1": a, "layer_2": b})
        out = tmp_path / "sig.csv"
        assert main(["significance", "--attn", str(dump),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'layer_2'" in err and "non-finite" in err
        assert not out.exists()


    def test_rows_not_summing_to_one_named(self, tmp_path, capsys):
        # a uniform layer plus an all-zero layer used to write weights
        # summing to 1.5 for 3 tokens and exit 0
        dump = tmp_path / "attn.evdt"
        write_dump(dump, {"layer_1": np.full((3, 3), 1 / 3),
                          "layer_2": np.zeros((3, 3))})
        out = tmp_path / "sig.csv"
        assert main(["significance", "--attn", str(dump),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'layer_2' row 0 sums to 0" in err
        assert not out.exists()

    def test_names_the_first_bad_row(self, tmp_path, capsys):
        a = np.full((3, 3), 1 / 3)
        a[2] = [0.5, 0.25, 0.3]
        dump = tmp_path / "attn.evdt"
        write_dump(dump, {"layer_1": a})
        assert main(["significance", "--attn", str(dump)]) == 1
        assert "'layer_1' row 2 sums to 1.05," in capsys.readouterr().err

    @pytest.mark.parametrize("k", [3, 64])
    def test_float32_softmax_rows_accepted(self, tmp_path, k):
        rng = np.random.default_rng(k)
        e = np.exp(rng.standard_normal((2, k, k)) * 4)
        e32 = e[1].astype(np.float32)
        dump = tmp_path / "attn.evdt"
        write_dump(dump, {
            "uniform": np.full((k, k), 1 / k, dtype=np.float32),
            "stored": (e[0] / e[0].sum(axis=1, keepdims=True)).astype(np.float32),
            "computed": e32 / e32.sum(axis=1, keepdims=True)})
        assert all(m.dtype == np.float32 for m in read_dump(dump)[0].values())
        assert main(["significance", "--attn", str(dump), "--out",
                     str(tmp_path / "sig.csv")]) == 0


class TestSynthAndVoxelize:
    def test_synth_then_voxelize(self, tmp_path, capsys):
        sample = tmp_path / "sample"
        assert main(["synth", "--out", str(sample), "--seed", "1"]) == 0
        for name in ("frame.evdt", "events.txt", "masks.rle", "scene.yaml"):
            assert (sample / name).exists()
        vol_path = tmp_path / "vol.evdt"
        assert main(["voxelize", "--events", str(sample / "events.txt"),
                     "--out", str(vol_path), "--bins", "3",
                     "--t-end", "40000", "--normalize"]) == 0
        tensors, meta = read_dump(vol_path)
        assert tensors["volume"].shape == (32, 32, 3)
        assert meta["bins"] == 3
        assert 0 <= tensors["volume"].min() and tensors["volume"].max() <= 1.0

    def test_voxelize_headerless_needs_grid_flags(self, tmp_path, capsys):
        ev_path = tmp_path / "events.txt"
        ev_path.write_text("1,1,1,1\n")
        for flags in ([], ["--height", "4"], ["--width", "4"]):
            assert main(["voxelize", "--events", str(ev_path),
                         "--out", str(tmp_path / "v.evdt")] + flags) == 2
            assert capsys.readouterr().err == (
                "voxelize: need --height/--width or a '# H= W=' header\n")
        assert not (tmp_path / "v.evdt").exists()

    def test_voxelize_events_all_at_t_start(self, tmp_path, capsys):
        # t_end defaulted to the last event's t, which is t_start here, so
        # a valid file exited 1 with "empty window" for a t_end never given
        ev_path = tmp_path / "events.txt"
        ev_path.write_text("# H=4 W=4\n0,1,1,1\n0,2,2,0\n")
        out = tmp_path / "v.evdt"
        assert main(["voxelize", "--events", str(ev_path),
                     "--out", str(out)]) == 0
        tensors, meta = read_dump(out)
        assert meta["window"] == [0, 1]
        assert tensors["volume"].sum() == 2
        # an empty stream keeps its one-microsecond window
        ev_path.write_text("# H=4 W=4\n")
        assert main(["voxelize", "--events", str(ev_path), "--out", str(out),
                     "--t-start", "7"]) == 0
        assert read_dump(out)[1]["window"] == [7, 8]
        # a t_start past int64 is no int64 bound in the default
        big = 10 ** 20
        assert main(["voxelize", "--events", str(ev_path), "--out", str(out),
                     "--t-start", str(big)]) == 0
        assert read_dump(out)[1]["window"] == [big, big + 1]


class TestParamsAndGradcheck:
    def test_params_table(self, capsys):
        # without a config the table is the run default's: ViT-B
        assert ViTConfig() == VIT_B == RunConfig().model
        assert main(["params"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        # each row's label, then its count: the paper's nine rows at ViT-B
        assert {r[:36].rstrip(): int(r[36:].split()[0]) for r in rows} == {
            "Embed": 590592,
            "Embed + Four MLPs": 19480320,
            "Embed + Four Blocks": 28942080,
            "Embed + All MLPs": 57259776,
            "All": 86431488,
            "LoRA(Embed + Four MLPs, r=16)": 1082112,
            "LoRA(Embed + Four MLPs, r=64)": 2556672,
            "LoRA(Embed + Four MLPs, r=256)": 8454912,
            "LoRA(Embed + All Blocks, r=16)": 2949888}
        assert len(rows) == len(_PARAM_ROWS) == 9

    def test_params_leaves_out_rows_the_model_lacks(self, capsys):
        # the tiny profile has 2 blocks: no "Four" row's block 3 exists
        config = Path(__file__).resolve().parents[1] / "configs" / "tiny.yaml"
        assert main(["params", "--config", str(config)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r[:36].rstrip() for r in rows] == [
            "Embed", "Embed + All MLPs", "All"]
        assert rows[-1].split()[1:] == ["5488", "100.0%"]

    def test_lora_rows_train_the_sites_they_name(self):
        # each paper LoRA row is its plan row plus a rank: the embed map
        # whole, then every adapted site's A, then every site's B
        mlps, blocks = ("mlp1", "mlp2"), ("qkv", "proj", "mlp1", "mlp2")
        want = {"LoRA(Embed + Four MLPs, r=16)": (16, (3, 6, 9, 12), mlps),
                "LoRA(Embed + Four MLPs, r=64)": (64, (3, 6, 9, 12), mlps),
                "LoRA(Embed + Four MLPs, r=256)": (256, (3, 6, 9, 12), mlps),
                "LoRA(Embed + All Blocks, r=16)": (16, range(1, 13), blocks)}
        rows = {label: plan for label, plan in _PARAM_ROWS
                if label.startswith("LoRA")}
        assert list(rows) == list(want)
        shapes = param_shapes(VIT_B)
        for label, (r, layers, parts) in want.items():
            sites = [f"block.{i}.{p}" for i in layers for p in parts]
            entries = [("embed.w", (768, 768)), ("embed.b", (768,))]
            entries += [(f"{s}.lora_a", (r, shapes[f"{s}.w"][0]))
                        for s in sites]
            entries += [(f"{s}.lora_b", (shapes[f"{s}.w"][1], r))
                        for s in sites]
            assert list(trainable_shapes(VIT_B, rows[label]).items()) == \
                entries, label

    def test_params_rejects_bogus_plan(self, tmp_path, capsys):
        p = tmp_path / "c.yaml"
        p.write_text("plan: {mode: bogus}\n")
        assert main(["params", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: plan.mode must be one of ")
        assert err.count("\n") == 1

    def test_gradcheck_default(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        assert "gradient error" in capsys.readouterr().out


class TestErrorHandling:
    def test_missing_config(self, capsys):
        assert main(["train", "--config", "/nonexistent.yaml"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump({"model": {"imgsize": 8}}))
        assert main(["train", "--config", str(p)]) == 1
        assert "model.imgsize" in capsys.readouterr().err

    def test_events_section_is_not_a_key(self, tmp_path, capsys):
        # every run voxelizes unsigned and normalizes; neither was settable
        p = tmp_path / "old.yaml"
        p.write_text(yaml.safe_dump({"events": {"normalize": True}}))
        assert main(["train", "--config", str(p)]) == 1
        assert capsys.readouterr().err == "error: unknown config key: events\n"

    @pytest.mark.parametrize("key,value", [
        ("train.steps_per_epoch", 0),
        ("train.epochs", 0),
        ("train.batch_size", 0),
        ("train.lr", "abc"),
        ("model.patch_size", 0),
        ("scene.num_samples", 0),
        ("scene.num_shapes", -3),
        ("distill.layers", 3),
        ("distill.layers", [0, -1, 2]),
        ("scene.seed", 1),
        ("scene.shapes", [{"kind": "disk"}]),
        ("plan.lora_sites", {"kind": "mlps", "layers": [1]}),
        ("model", [8, 4]),
        ("config", [1, 2]),
        ("scene.height", 0),
        ("scene.width", 0),
        ("scene.window_ms", 0),
        ("distill.seed", 7),
        ("plan.mode", "bogus"),
        ("plan.layers", [5]),
        ("plan.lora_rank", 0),
        ("plan.lora_sites", ["heads", [1]]),
        ("distill.layers", [0, 1, 1]),
        ("distill.rollout_horizon", 0),
        ("distill.rollout_horizon", -1),
        ("distill.gammas", [0.5, -1.0]),
        ("distill.gamma0", -1.0),
        ("distill.beta", 1.5),
        ("train.decay_factor", -1.0),
        ("distill.layers", [0, 1, 5]),      # deeper than model.depth 2
        ("plan.layers", [1, 1]),
    ])
    def test_malformed_config_names_key(self, tmp_path, capsys, key, value):
        doc = copy.deepcopy(TINY_DOC)
        if key == "config":
            doc = value
        elif "." in key:
            section, name = key.split(".")
            doc[section][name] = value
        else:
            doc[key] = value
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["train", "--config", str(p),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "seed must be >= 0"),
        ("teacher_seed", -2, "teacher_seed must be >= 0"),
        ("train.seed", -1, "train.seed must be >= 0"),
        ("train.decay_epoch", 0, "train.decay_epoch must be >= 1"),
        ("train.decay_epoch", -3, "train.decay_epoch must be >= 1"),
        # these three named their section only: "distill: unknown ..."
        ("distill.attention_source", "teachr",
         "distill.attention_source must name an attention source of "
         "teacher, student, teacher_single_layer, uniform, got 'teachr'"),
        ("distill.gammas", [0.5],
         "distill.gammas must hold 2 values, one per nonzero layer, got 1"),
        ("train.decay_epoch", 3,
         "train.decay_epoch must not exceed epochs (1), got 3"),
        # these four passed their checks (nan <= 0 is false) and failed
        # mid-run on a non-finite softmax input or loss
        ("train.lr", float("inf"),
         "train.lr must be positive and finite, got inf"),
        ("train.lr", float("nan"),
         "train.lr must be positive and finite, got nan"),
        ("train.decay_factor", float("nan"),
         "train.decay_factor must be positive and finite, got nan"),
        ("distill.gammas", [float("nan"), 1.0],
         "distill.gammas must be >= 0 and finite, got (nan, 1.0)"),
        ("distill.gammas", [0.5, float("inf")],
         "distill.gammas must be >= 0 and finite, got (0.5, inf)"),
        ("distill.gamma0", float("inf"),
         "distill.gamma0 must be >= 0 and finite, got inf"),
        ("distill.gamma0", float("nan"),
         "distill.gamma0 must be >= 0 and finite, got nan"),
        ("model.embed_dim", 7,
         "model.embed_dim must be divisible by num_heads"),
    ])
    def test_out_of_range_rejected_at_load(self, tmp_path, capsys, key,
                                           value, message):
        # a negative seed used to create --out and then fail in numpy with
        # a bare "expected non-negative integer"; a decay epoch below 1 was
        # taken, and the rate decayed from epoch 1
        doc = copy.deepcopy(TINY_DOC)
        section, _, name = key.rpartition(".")
        (doc[section] if section else doc)[name] = value
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main(["train", "--config", str(p),
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("cmd", ["train", "synth"])
    @pytest.mark.parametrize("scene, message", [
        ({"threshold": 0}, "scene.threshold must be > 0, got 0.0"),
        ({"noise_rate": -0.1},
         "scene.noise_rate must be finite and >= 0, got -0.1"),
        ({"background": -1.0},
         "scene.background must be finite and above -1, got -1.0"),
        ({"window_ms": float("inf")},
         "scene.window_ms must be finite and > 0, got inf"),
        ({"shapes": [{"kind": "triangle", "position": [4, 4],
                      "size": [2, 2]}]},
         "scene.shapes[0].kind must be one of rectangle, disk, "
         "got 'triangle'"),
        ({"shapes": [{"kind": "disk", "position": [4, 4], "size": [2, 2],
                      "intensity": -2}]},
         "scene.shapes[0].intensity must be finite and above -1, got -2.0"),
        ({"shapes": [{"kind": "disk", "position": [float("nan"), 4.0],
                      "size": [2, 2]}]},
         "scene.shapes[0].position must be finite, got (nan, 4.0)"),
        ({"shapes": [{"kind": "rectangle", "position": [4, 4],
                      "size": [float("inf"), 3.0]}]},
         "scene.shapes[0].size must be finite, got (inf, 3.0)"),
        ({"shapes": [{"kind": "disk", "position": [4, 4], "size": [2, 2],
                      "velocity": [0.1, -float("inf")]}]},
         "scene.shapes[0].velocity must be finite, got (0.1, -inf)"),
        ({"window_ms": float(2 ** 58)},
         f"scene: a 8x8 grid over {float(2 ** 58)} ms overflows the int64 "
         "event sort key"),
    ], ids=["threshold", "noise_rate", "background", "window_ms", "kind",
            "intensity", "position", "size", "velocity", "sort-key"])
    def test_bad_scene_rejected_at_load(self, tmp_path, capsys, cmd, scene,
                                        message):
        doc = copy.deepcopy(TINY_DOC)
        doc["scene"].update(scene)
        p = tmp_path / "scene.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert main([cmd, "--config", str(p),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["train", "eval"])
    def test_scene_must_fit_model_before_any_file(self, tmp_path, capsys,
                                                  cmd):
        # eval used to read the checkpoint first and then fail on a frame
        # with "input shape (16, 16, 3) does not match config"
        doc = copy.deepcopy(TINY_DOC)
        doc["scene"]["height"] = 16
        p = tmp_path / "scene.yaml"
        p.write_text(yaml.safe_dump(doc))
        argv = [cmd, "--config", str(p)]
        argv += (["--out", str(tmp_path / "run")] if cmd == "train" else
                 ["--checkpoint", str(tmp_path / "missing.evdt")])
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            "error: scene.height/width must equal model.img_size\n"
        assert not (tmp_path / "run").exists()

    def test_synth_empty_scene_rejected(self, tmp_path, capsys):
        p = tmp_path / "empty.yaml"
        p.write_text(yaml.safe_dump({"scene": {"height": 0, "width": 0}}))
        assert main(["synth", "--config", str(p),
                     "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err == "error: scene.height must be >= 1\n"
        assert not (tmp_path / "s").exists()

    def test_scene_spec_built_whole(self):
        # the scene section is frozen, so each sample's spec takes its seed
        # and shapes when it is built, and is checked then
        scene = RunConfig().scene
        with pytest.raises(FrozenInstanceError):
            scene.height = 4
        spec = cli._scene_spec(scene, seed=5)
        assert type(spec) is synth.SceneSpec and spec.seed == 5
        assert len(spec.shapes) == scene.num_shapes

    @pytest.mark.parametrize("text", ["0\n", "false\n", '""\n'])
    def test_falsy_document_not_a_mapping(self, tmp_path, capsys, text):
        p = tmp_path / "falsy.yaml"
        p.write_text(text)
        assert main(["params", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert "expected a mapping" in err and err.count("\n") == 1

    def test_empty_file_is_empty_mapping(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        assert load_run(p)[0] == {}

    def test_yaml_syntax_error(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("seed: [1\n")
        assert main(["train", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and err.count("\n") == 1

    def test_truncated_checkpoint(self, tmp_path, config, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        ck = out / "checkpoint.evdt"
        ck.write_bytes(ck.read_bytes()[:7])
        capsys.readouterr()
        assert main(["eval", "--config", config, "--checkpoint", str(ck)]) == 1
        err = capsys.readouterr().err
        assert err == "error: truncated header\n"

    def test_eval_checkpoint_needs_config(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "c.evdt")]) == 2
        assert "--config" in capsys.readouterr().err

    def test_eval_checkpoint_without_head(self, tmp_path, config, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        ck = out / "checkpoint.evdt"
        tensors, meta = read_dump(ck)
        del tensors["head.b"]
        write_dump(ck, tensors, meta=meta)
        capsys.readouterr()
        assert main(["eval", "--config", config, "--checkpoint", str(ck)]) == 1
        err = capsys.readouterr().err
        assert "head.b" in err and err.count("\n") == 1

    @pytest.mark.parametrize("name, value", [
        ("head.w", np.full(8, np.nan)),
        ("head.b", np.array([np.inf])),
        ("head.b", np.zeros(0)),
        ("head.b", np.zeros(2)),
        ("head.w", np.ones(7)),
        ("head.w", np.ones((8, 1))),
    ], ids=["nan-w", "inf-b", "empty-b", "long-b", "short-w", "column-w"])
    def test_eval_bad_head_named(self, tmp_path, config, capsys, name, value):
        # a NaN head.w used to score mIoU 0 and exit 0, an empty head.b
        # to end in an IndexError traceback
        out = tmp_path / "run"
        assert main(["train", "--config", config, "--out", str(out)]) == 0
        ck = out / "checkpoint.evdt"
        tensors, meta = read_dump(ck)
        tensors[name] = value
        write_dump(ck, tensors, meta=meta)
        capsys.readouterr()
        assert main(["eval", "--config", config, "--checkpoint", str(ck)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint mask head {name} ") \
            and err.count("\n") == 1

    @pytest.mark.parametrize("old_plan", [
        {"mode": "embed+mlps", "layers": [1, 2], "lora_rank": 16,
         "lora_sites": ["mlps", [3, 6, 9, 12]]},
        {"mode": "lora", "layers": [3, 6, 9, 12], "lora_rank": 2,
         "lora_sites": ["blocks", [1, 2]]},
    ], ids=["dense", "lora"])
    def test_pre_rank_checkpoint_rejected(self, tmp_path, config, capsys,
                                          old_plan):
        # checkpoints written while LoRA was its own `lora` mode carry
        # the retired `plan.lora_sites` key, dense ones too
        assert main(["train", "--config", config,
                     "--out", str(tmp_path / "run")]) == 0
        ck = tmp_path / "run" / "checkpoint.evdt"
        tensors, meta = read_dump(ck)
        write_dump(ck, tensors, meta={**meta, "plan": old_plan})
        capsys.readouterr()
        assert main(["eval", "--config", config, "--checkpoint", str(ck)]) == 1
        assert capsys.readouterr().err == \
            "error: unknown config key: plan.lora_sites\n"

    @pytest.mark.parametrize("layers, message", [
        ([5], "plan.layers: layer 5 out of range 1..2"),
        ([1, 1], "plan.layers must be distinct, got [1, 1]"),
    ])
    def test_checkpoint_plan_errors_name_the_key(self, tmp_path, config,
                                                 capsys, layers, message):
        # as a run configuration's would: a block past the depth used to
        # print a bare "layers: ...", and a repeated one loaded silently
        ck = tmp_path / "ck.evdt"
        save_checkpoint(ck, TrainState.create(
            init_params(load_run(config)[1].model),
            TrainablePlan(mode="embed+mlps", layers=(1,))))
        tensors, meta = read_dump(ck)
        write_dump(ck, tensors, meta={**meta, "plan": {
            "mode": "embed+mlps", "layers": layers}})
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(ck)
        assert str(exc.value) == message
        assert main(["eval", "--config", config, "--checkpoint", str(ck)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_checkpoint_magic(self, tmp_path, config, capsys):
        ck = tmp_path / "bad.evdt"
        ck.write_bytes(b"JUNKJUNKJUNK")
        assert main(["eval", "--config", config,
                     "--checkpoint", str(ck)]) == 1
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("x,y", [(-1, 0), (4, 0), (0, 3)])
    def test_voxelize_out_of_grid_event(self, tmp_path, capsys, x, y):
        # no '# H= W=' header, so only voxelize can catch the coordinates
        ev_path = tmp_path / "events.txt"
        ev_path.write_text(f"1,0,0,1\n2,{x},{y},1\n")
        assert main(["voxelize", "--events", str(ev_path),
                     "--out", str(tmp_path / "v.evdt"), "--height", "3",
                     "--width", "4", "--t-end", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: event 1:") and err.count("\n") == 1

    def test_eval_run_outside_grid(self, tmp_path, capsys):
        for d in ("gt", "pred"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "a.rle").write_text("# H=2 W=2\n0: 0,1\n")
        (tmp_path / "pred" / "a.rle").write_text("# H=2 W=2\n0: 3,5\n")
        assert main(["eval", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'pred' / 'a.rle'}: line 2:")
        assert err.count("\n") == 1

    # header grids that parse but no array can hold, each at least 2**60
    # bytes so numpy refuses it before allocating: a count past int64 gave
    # an OverflowError or "Maximum allowed dimension exceeded", a smaller
    # one a MemoryError, each a traceback or a message naming nothing
    @pytest.mark.parametrize("H, W", [(10 ** 20, 4), (2 ** 29, 2 ** 29)])
    def test_voxelize_grid_too_large_named(self, tmp_path, capsys, H, W):
        ev_path = tmp_path / "events.txt"
        ev_path.write_text(f"# H={H} W={W}\n1,1,1,1\n")
        assert main(["voxelize", "--events", str(ev_path),
                     "--out", str(tmp_path / "v.evdt")]) == 1
        assert capsys.readouterr().err == \
            f"error: the {H}x{W} grid of 3 bins is too large to hold\n"
        assert not (tmp_path / "v.evdt").exists()

    # a bin count or width past int64 overflowed in voxelize's bin and
    # cell arithmetic, before the grid's guard: an OverflowError traceback
    @pytest.mark.parametrize("header, flags, grid", [
        ("# H=4 W=4\n", ["--bins", str(10 ** 20)], f"4x4 grid of {10 ** 20}"),
        ("", ["--height", "4", "--width", str(10 ** 20)],
         f"4x{10 ** 20} grid of 3"),
        (f"# H=4 W={10 ** 20}\n", [], f"4x{10 ** 20} grid of 3"),
    ], ids=["bins-flag", "width-flag", "width-header"])
    def test_voxelize_bin_arithmetic_too_large_named(self, tmp_path, capsys,
                                                     header, flags, grid):
        ev_path = tmp_path / "events.txt"
        ev_path.write_text(header + "1,1,1,1\n")
        assert main(["voxelize", "--events", str(ev_path),
                     "--out", str(tmp_path / "v.evdt")] + flags) == 1
        assert capsys.readouterr().err == \
            f"error: the {grid} bins is too large to hold\n"
        assert not (tmp_path / "v.evdt").exists()

    # each was a numpy._core._exceptions._ArrayMemoryError traceback. The
    # model's 6 EiB is refused by numpy before touching memory (between
    # 2**60 and 2**63 bytes, so MemoryError, not "array is too big"); the
    # scenes' int64 event sort key overflows, so they are refused at load,
    # whatever the work would allocate first
    @pytest.mark.parametrize("cmd, doc, message", [
        ("synth", {"scene": {"height": 2 ** 29, "width": 2 ** 29}},
         "error: scene: a 536870912x536870912 grid over 40.0 ms overflows "
         "the int64 event sort key\n"),
        ("synth", {"scene": {"window_ms": float(2 ** 58)}},
         f"error: scene: a 32x32 grid over {float(2 ** 58)} ms overflows "
         "the int64 event sort key\n"),
        ("gradcheck", {"model": {"img_size": 8, "patch_size": 4,
                                 "embed_dim": 2 ** 54, "num_heads": 1}},
         "error: Unable to allocate 6.00 EiB "),
    ], ids=["scene-grid", "scene-window", "model-width"])
    def test_refused_allocation_one_line(self, tmp_path, capsys, cmd, doc,
                                         message):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        argv = [cmd, "--config", str(p)]
        if cmd == "synth":
            argv += ["--out", str(tmp_path / "s")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
        assert not (tmp_path / "s").exists()

    # a refused allocation used to leave an empty --out directory behind.
    # Both configs load; numpy refuses the first array of the work: the
    # synth frame of 256 TiB, past any 47-bit address space, and the train
    # patch embedding of 6 EiB. The scene's axes stay short, so its
    # per-axis arrays are small whichever allocation comes first
    @pytest.mark.parametrize("cmd, doc", [
        ("synth", {"scene": {"height": 2 ** 22, "width": 2 ** 23,
                             "window_ms": 1.0}}),
        ("train", {**TINY_DOC, "model": {**TINY_DOC["model"],
                                         "embed_dim": 2 ** 54}}),
    ], ids=["synth", "train"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_run_makes_no_out_dir(self, tmp_path, capsys, cmd, doc,
                                         existing):
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        if existing:  # an --out that was there stays, with its files
            out.mkdir()
            (out / "keep.txt").write_text("kept\n")
        assert main([cmd, "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1
        if existing:
            assert [f.name for f in out.iterdir()] == ["keep.txt"]
            assert (out / "keep.txt").read_text() == "kept\n"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("H, W", [(10 ** 10, 10 ** 10),
                                      (2 ** 30, 2 ** 30)])
    def test_eval_mask_grid_too_large_named(self, tmp_path, capsys, H, W):
        for d in ("gt", "pred"):
            (tmp_path / d).mkdir()
        # the message names the header line, not the mask line 3
        (tmp_path / "gt" / "a.rle").write_text(f"# H={H} W={W}\n\n0: 1,2\n")
        assert main(["eval", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred")]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'gt' / 'a.rle'}: line 1: the {H}x{W} "
            f"grid is too large to hold\n")

    def test_eval_mask_dimensions_differ(self, tmp_path, capsys):
        for d, hw in (("gt", "2 W=2"), ("pred", "2 W=3")):
            (tmp_path / d).mkdir()
            (tmp_path / d / "a.rle").write_text(f"# H={hw}\n0: 0,1\n")
        assert main(["eval", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred")]) == 1
        assert "dimensions differ" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["synth", "gradcheck"])
    def test_negative_seed_named(self, tmp_path, capsys, cmd):
        # numpy's bare "expected non-negative integer" named no flag
        argv = [cmd, "--seed", "-1"]
        if cmd == "synth":
            argv += ["--out", str(tmp_path / "s")]
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            "error: --seed must be >= 0, got -1\n"
        assert not (tmp_path / "s").exists()

    def test_voxelize_zero_bins_named(self, tmp_path, capsys):
        # the message was voxelize's own "B must be >= 1"
        assert main(["synth", "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        assert main(["voxelize", "--events",
                     str(tmp_path / "s" / "events.txt"),
                     "--out", str(tmp_path / "v.evdt"), "--bins", "0"]) == 1
        assert capsys.readouterr().err == "error: --bins must be >= 1, got 0\n"
        assert not (tmp_path / "v.evdt").exists()

    @pytest.mark.parametrize("flags, given", [
        (["--height", "0", "--width", "4"], "--height 0 --width 4"),
        (["--width", "31"], "--width 31"),
        (["--height", "32", "--width", "16"], "--height 32 --width 16"),
    ])
    def test_voxelize_flags_against_header(self, tmp_path, capsys, flags,
                                           given):
        # the '# H=32 W=32' header won, and the flags were dropped silently
        assert main(["synth", "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        argv = ["voxelize", "--events", str(tmp_path / "s" / "events.txt"),
                "--out", str(tmp_path / "v.evdt")]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == (
            f"voxelize: {given} disagrees with the '# H=32 W=32' header\n")
        assert not (tmp_path / "v.evdt").exists()
        # flags that agree with the header are taken
        assert main(argv + ["--height", "32", "--width", "32"]) == 0
        assert read_dump(tmp_path / "v.evdt")[0]["volume"].shape == (32, 32, 3)

    @pytest.mark.parametrize("text", ["", "1,0,0,1\n"])
    @pytest.mark.parametrize("flags, named", [
        (["--height", "0", "--width", "4"], "--height must be >= 1, got 0"),
        (["--height", "3", "--width", "-2"], "--width must be >= 1, got -2"),
    ])
    def test_voxelize_empty_grid_named(self, tmp_path, capsys, text, flags,
                                       named):
        # without a header, an event read as outside a 0x4 grid, and an
        # empty file wrote a (0, 4, 3) volume
        ev_path = tmp_path / "events.txt"
        ev_path.write_text(text)
        assert main(["voxelize", "--events", str(ev_path),
                     "--out", str(tmp_path / "v.evdt")] + flags) == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp_path / "v.evdt").exists()


def _keys(cls) -> set:
    """Every field name of a dataclass and the dataclasses nested in it."""
    keys = set()
    for f in fields(cls):
        keys.add(f.name)
        tp = get_type_hints(cls)[f.name]
        for t in (tp, *get_args(tp)):
            if is_dataclass(t):
                keys |= _keys(t)
    return keys


KEYS = sorted(_keys(RunConfig) | {"bogus"})
SCALARS = (st.none() | st.booleans() | st.integers(-2, 40) | st.floats()
           | st.sampled_from(["", "abc", "lora", "mlps", "teacher", "disk"]))
FLAT = st.dictionaries(st.sampled_from(KEYS), SCALARS, max_size=3)
SECTIONS = st.sampled_from([f.name for f in fields(RunConfig)])
DOCS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5),
    max_leaves=25)


class TestRunConfig:
    @settings(max_examples=300, deadline=None)
    @given(DOCS)
    def test_fuzz_raises_only_config_error(self, doc):
        try:
            assert isinstance(from_doc(RunConfig, doc), RunConfig)
        except ConfigError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(SECTIONS, st.dictionaries(
        st.sampled_from(KEYS), SCALARS | st.lists(SCALARS | FLAT, max_size=3),
        max_size=4), max_size=3))
    def test_fuzz_sections_raise_only_config_error(self, doc):
        try:
            from_doc(RunConfig, doc)
        except ConfigError:
            pass

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).resolve().parent.parent
                        / "configs").glob("*.yaml")), ids=lambda p: p.name)
    def test_shipped_configs_build(self, path):
        doc, run = load_run(path)
        assert doc == load_config(path)
        assert run.train.seed == doc.get("train", {}).get("seed", run.seed)
        assert run.model.img_size == run.scene.height == run.scene.width

    def test_train_seed_defaults_to_run_seed(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("seed: 5\ntrain: {lr: 0.5}\n")
        assert load_run(p)[1].train.seed == 5
        p.write_text("seed: 5\ntrain: {seed: 2}\n")
        assert load_run(p)[1].train.seed == 2

    @pytest.mark.parametrize("plan,message", [
        ({"mode": "embed+mlps", "layers": [1, 3], "lora_rank": 2},
         "plan.layers: layer 3 out of range 1..2"),
        ({"mode": "embed+blocks", "layers": [0]},
         "plan.layers: layer 0 out of range 1..2"),
        ({}, "plan.layers: layer 3 out of range 1..2"),
    ])
    def test_plan_blocks_checked_against_depth(self, plan, message):
        doc = {"model": TINY_DOC["model"], "plan": plan}
        with pytest.raises(ConfigError) as exc:
            from_doc(RunConfig, doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("plan, message", [
        ({"mode": "embed+all_mlps", "lora_rank": 0},
         "got 0 under 'embed+all_mlps'"),
        ({"mode": "embed", "lora_rank": 16}, "got 16 under 'embed'"),
        ({"mode": "embed+blocks", "layers": [1], "lora_rank": 0},
         "got 0 under 'embed+blocks'"),
        ({"mode": "all", "lora_rank": -1}, "got -1 under 'all'"),
    ])
    def test_lora_rank_checked_at_load(self, plan, message):
        # a rank needs an affine block part to adapt
        doc = {"model": TINY_DOC["model"], "plan": plan}
        with pytest.raises(ConfigError) as exc:
            from_doc(RunConfig, doc)
        assert str(exc.value) == ("plan.lora_rank must be >= 1 under a mode "
                                  f"with block parts, {message}")

    @pytest.mark.parametrize("mode", ["embed+mlps", "embed+all_mlps"])
    def test_plan_layers_must_be_distinct(self, mode):
        # the shapes dropped the repeat, but the checkpoint kept [1, 1]
        doc = {"model": TINY_DOC["model"],
               "plan": {"mode": mode, "layers": [1, 1]}}
        with pytest.raises(ConfigError) as exc:
            from_doc(RunConfig, doc)
        assert str(exc.value) == "plan.layers must be distinct, got [1, 1]"

    def test_plan_that_trains_nothing_rejected(self):
        # `none` was a mode that trained no entry
        doc = {"model": TINY_DOC["model"], "plan": {"mode": "none"}}
        with pytest.raises(ConfigError, match="^plan.mode must be one of "
                                              "embed, .* got 'none'$"):
            from_doc(RunConfig, doc)

    def test_unused_plan_layers_not_checked(self):
        # embed+all_mlps trains every block whatever `layers` holds
        doc = {"model": TINY_DOC["model"],
               "plan": {"mode": "embed+all_mlps", "layers": [9]}}
        assert from_doc(RunConfig, doc).plan.layers == (9,)
