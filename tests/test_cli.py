import copy
import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from evadapt.cli import RunConfig, load_config, load_run, main
from evadapt.io import ConfigError, from_doc, read_dump, write_dump, write_masks

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

    def test_lora_end_to_end(self, tmp_path, capsys):
        doc = copy.deepcopy(TINY_DOC)
        doc["plan"] = {"mode": "lora", "lora_rank": 2,
                       "lora_sites": ["blocks", [1, 2]]}
        config = tmp_path / "lora.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        tensors, meta = read_dump(out / "checkpoint.evdt")
        assert "lora_sites" not in meta
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
        assert "differ" in capsys.readouterr().err


class TestEvalMaskDirs:
    def test_rle_comparison(self, tmp_path, capsys):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        m = np.zeros((4, 4), dtype=bool)
        m[:2, :2] = True
        write_masks(gt_dir / "a.rle", [m])
        write_masks(pred_dir / "a.rle", [m])
        write_masks(gt_dir / "b.rle", [m])  # no matching prediction
        out = tmp_path / "r.json"
        assert main(["eval", "--gt-dir", str(gt_dir),
                     "--pred-dir", str(pred_dir), "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        assert got["aggregate"]["frames"] == 2
        assert got["aggregate"]["mIoU"] == pytest.approx(0.5)

    def test_no_masks_found(self, tmp_path, capsys):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        assert main(["eval", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred")]) == 2

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


class TestParamsAndGradcheck:
    def test_params_table(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "590592" in out
        assert "57259776" in out
        assert "1082112" in out

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

    @pytest.mark.parametrize("key,value", [
        ("train.steps_per_epoch", 0),
        ("train.epochs", 0),
        ("train.batch_size", 0),
        ("train.lr", "abc"),
        ("model.patch_size", 0),
        ("scene.num_samples", 0),
        ("events.bins", 0),
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
    ])
    def test_malformed_config_names_key(self, tmp_path, capsys, key, value):
        doc = copy.deepcopy(TINY_DOC)
        doc["events"] = {"bins": 3}
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

    def test_synth_empty_scene_rejected(self, tmp_path, capsys):
        p = tmp_path / "empty.yaml"
        p.write_text(yaml.safe_dump({"scene": {"height": 0, "width": 0}}))
        assert main(["synth", "--config", str(p),
                     "--out", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        assert err == "error: scene.height must be >= 1\n"
        assert not (tmp_path / "s").exists()

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
        assert err.startswith("error: line 2:") and err.count("\n") == 1

    def test_eval_mask_dimensions_differ(self, tmp_path, capsys):
        for d, hw in (("gt", "2 W=2"), ("pred", "2 W=3")):
            (tmp_path / d).mkdir()
            (tmp_path / d / "a.rle").write_text(f"# H={hw}\n0: 0,1\n")
        assert main(["eval", "--gt-dir", str(tmp_path / "gt"),
                     "--pred-dir", str(tmp_path / "pred")]) == 1
        assert "dimensions differ" in capsys.readouterr().err


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

    def test_lora_sites_list_form(self):
        run = from_doc(RunConfig, {"plan": {"mode": "lora",
                                            "lora_sites": ["blocks", [1, 2]]}})
        assert run.plan.lora_sites == ("blocks", (1, 2))

    @pytest.mark.parametrize("plan,message", [
        ({"mode": "lora", "lora_sites": ["mlps", [1, 3]]},
         "plan.lora_sites: layer 3 out of range 1..2"),
        ({"mode": "embed+blocks", "layers": [0]},
         "plan.layers: layer 0 out of range 1..2"),
        ({}, "plan.layers: layer 3 out of range 1..2"),
    ])
    def test_plan_blocks_checked_against_depth(self, plan, message):
        doc = {"model": TINY_DOC["model"], "plan": plan}
        with pytest.raises(ConfigError) as exc:
            from_doc(RunConfig, doc)
        assert str(exc.value) == message

    def test_unused_plan_layers_not_checked(self):
        # embed+all_mlps trains every block whatever `layers` holds
        doc = {"model": TINY_DOC["model"],
               "plan": {"mode": "embed+all_mlps", "layers": [9]}}
        assert from_doc(RunConfig, doc).plan.layers == (9,)
