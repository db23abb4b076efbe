"""What the benchmark measures: workloads, metrics, units and bounds.

This table is the one source for ``BENCHMARK.json``; ``run.py --workload
all`` rewrites that file from it, and the benchmark's tests check that the
committed file matches.
"""

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

# name -> why the workload is in the benchmark
WORKLOADS = {
    "train-tiny":
        "configs/tiny.yaml as users run it: 16 tokens, width 16, so each "
        "step is bound by per-op Python and autodiff overhead",
    "train-mid":
        "64 tokens, width 192, depth 12, batch 8 on 8 repeated samples: "
        "BLAS-bound steps, teacher cache, per-step rollout, 62 MB checkpoint",
    "teacher-vitb":
        "the paper's ViT-B teacher, 1024 tokens, width 768: large GEMMs and "
        "rollout at k=1024 on distinct frames, so no cache can help",
    "eval-pipeline":
        "per-frame eval on 128x128 scenes with a small encoder: event "
        "simulation, text I/O, voxelize, masks and matching do the work",
}

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

# (name, unit, better); times are seconds per work item of the workload
PER_LAYER = [
    ("autodiff.backward_s", "s", "lower"),
    ("autodiff.graph_nodes", "count", "lower"),
    ("autodiff.matmul_s", "s", "lower"),
    ("autodiff.matmul_gflops", "GFLOP/s", "higher"),
    ("autodiff.softmax_s", "s", "lower"),
    ("autodiff.layernorm_s", "s", "lower"),
    ("autodiff.gelu_s", "s", "lower"),
    ("autodiff.check_finite_s", "s", "lower"),
    ("encoder.teacher_forward_s", "s", "lower"),
    ("trainer.teacher_cache_misses", "count", "lower"),
    ("encoder.student_embed_s", "s", "lower"),
    ("encoder.student_forward_s", "s", "lower"),
    ("encoder.embed_s", "s", "lower"),
    ("encoder.blocks_s", "s", "lower"),
    ("encoder.forward_s", "s", "lower"),
    ("significance.rollout_s", "s", "lower"),
    ("significance.rollout_calls", "count", "lower"),
    ("significance.rollout_recomputed_share", "share", "lower"),
    ("distill.mix_tokens_s", "s", "lower"),
    ("distill.loss_s", "s", "lower"),
    ("trainer.adam_s", "s", "lower"),
    ("trainer.loop_other_s", "s", "lower"),
    ("trainer.checkpoint_save_s", "s", "lower"),
    ("trainer.checkpoint_load_s", "s", "lower"),
    ("io.checkpoint_mb", "MB", "lower"),
    ("synth.render_s", "s", "lower"),
    ("synth.events_s", "s", "lower"),
    ("synth.events_per_frame", "count", "higher"),
    ("synth.gt_masks_s", "s", "lower"),
    ("events.voxelize_s", "s", "lower"),
    ("events.write_s", "s", "lower"),
    ("events.read_s", "s", "lower"),
    ("cli.predict_masks_s", "s", "lower"),
    ("io.masks_write_s", "s", "lower"),
    ("io.masks_read_s", "s", "lower"),
    ("metrics.report_s", "s", "lower"),
    ("metrics.pairs_per_frame", "count", "lower"),
    ("metrics.empty_pred_frames", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


def benchmark_json() -> str:
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why}
                      for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
