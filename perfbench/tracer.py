"""Spans recorded from outside the program, and the self-time arithmetic.

A Tracer patches a function name in the namespace of the module that
calls it (for example ``trainer.adam_step`` or ``encoder.matmul``) with a
wrapper that records one span per call: name, parent span, start, end and
the phase (set-up or loop) it ran in. Nothing under ``src/`` changes; the
patches are undone when the tracer closes.

A span's self time is its duration minus the part of its interval that
its child spans cover. Because every span is timed by the benchmark's
own wrappers, the difference between a traced and an untraced pass over
the same work is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict

# (module attribute path, span name). The module is the namespace the
# caller looks the name up in, so one function can be traced under two
# names depending on who calls it (the teacher's and the student's
# forward both run encoder.forward_tokens).
SPANS = [
    ("autodiff.Tensor.backward", "autodiff.backward"),
    ("autodiff.check_finite", "autodiff.check_finite"),
    ("encoder.matmul", "autodiff.matmul"),
    ("encoder.softmax_rows", "autodiff.softmax"),
    ("encoder.layernorm", "autodiff.layernorm"),
    ("encoder.gelu", "autodiff.gelu"),
    ("encoder.embed_image", "encoder.embed"),
    ("encoder.forward_tokens", "encoder.blocks"),
    ("encoder.forward_capture", "encoder.teacher_forward"),
    ("cli.forward_capture", "encoder.forward"),
    ("trainer.embed_image", "encoder.student_embed"),
    ("trainer.forward_tokens", "encoder.student_forward"),
    ("trainer.mix_tokens", "distill.mix_tokens"),
    ("trainer.distill_loss", "distill.loss"),
    ("distill.distill_loss", "distill.loss"),
    ("distill.transition_stack", "significance.stack"),
    ("distill.token_significance", "significance.rollout"),
    ("trainer.train", "trainer.train"),
    ("trainer.adam_step", "trainer.adam"),
    ("trainer.save_checkpoint", "trainer.checkpoint_save"),
    ("trainer.load_checkpoint", "trainer.checkpoint_load"),
    ("synth.render_frame", "synth.render"),
    ("synth.generate_events", "synth.events"),
    ("synth.ground_truth_masks", "synth.gt_masks"),
    ("events.voxelize", "events.voxelize"),
    ("events.normalize_volume", "events.normalize"),
    ("events.write_events", "events.write"),
    ("events.read_events", "events.read"),
    ("cli.predict_masks", "cli.predict_masks"),
    ("io.write_masks", "io.masks_write"),
    ("io.read_masks", "io.masks_read"),
    ("metrics.compute_report", "metrics.report"),
]


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` is a sequence of (name, parent index or -1, start, end).
    Child intervals are merged and clipped to the parent's interval, so
    overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def _matmul_flops(a, b) -> float:
    import numpy as np
    sa, sb = np.shape(getattr(a, "data", a)), np.shape(getattr(b, "data", b))
    if len(sa) < 2 or len(sb) < 2:
        return 0.0
    batch = np.broadcast_shapes(sa[:-2], sb[:-2])
    return 2.0 * float(np.prod(batch)) * sa[-2] * sa[-1] * sb[-1]


def _graph_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _rollout_key(args, kwargs) -> bytes:
    """Digest of a token_significance call: the transitions it rolls out
    (stack[s-1:]) and every other argument."""
    h = hashlib.blake2b(digest_size=16)
    stack = args[0] if args else kwargs["stack"]
    s = args[1] if len(args) > 1 else kwargs["s"]
    for m in stack[s - 1:]:
        h.update(m.tobytes())
    h.update(repr((args[1:], sorted(kwargs.items()))).encode())
    return h.digest()


def _pairs(args, kwargs):
    gt = args[0] if args else kwargs["gt"]
    pred = args[1] if len(args) > 1 else kwargs["pred"]
    return len(gt) * len(pred), float(len(pred) == 0)


class Tracer:
    """Span wrappers on the evadapt modules: install() patches, close()
    restores. Spans and counts accumulate across installs."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []      # [name, parent, start, end]
        self.phases: list[str] = []      # phase of each span
        self.counts: dict[tuple, float] = defaultdict(float)
        self.missing: list[str] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._seen_rollouts: set[bytes] = set()
        self._patched: list[tuple] = []

    def install(self):
        """Patch every name in SPANS; names the program lacks are listed
        in `missing` and left untraced."""
        self.missing = []
        for path, name in SPANS:
            self._install(path, name)

    def _install(self, path, name):
        mod_name, *attrs = path.split(".")
        owner = self.modules[mod_name]
        for a in attrs[:-1]:
            owner = getattr(owner, a)
        original = getattr(owner, attrs[-1], None)
        if original is None:
            self.missing.append(path)
            return
        self._patched.append((owner, attrs[-1], original))
        setattr(owner, attrs[-1], self._wrap(original, name))

    def _count(self, key, value):
        self.counts[(self.phase, key)] += value

    def _wrap(self, fn, name):
        spans, stack, phases = self.spans, self._stack, self.phases
        clock = time.perf_counter
        pre = {"autodiff.matmul": self._pre_matmul,
               "autodiff.backward": self._pre_backward,
               "significance.rollout": self._pre_rollout,
               "metrics.report": self._pre_report}.get(name)
        post = self._post_events if name == "synth.events" else None

        def wrapper(*args, **kwargs):
            # work done for the trace itself stays outside the span
            if pre is not None:
                pre(args, kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            phases.append(self.phase)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if post is not None:
                post(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _pre_matmul(self, args, kwargs):
        self._count("matmul_flops", _matmul_flops(*args[:2]))

    def _pre_backward(self, args, kwargs):
        self._count("graph_nodes", _graph_nodes(args[0]))

    def _pre_rollout(self, args, kwargs):
        if self.phase != "loop":
            return
        key = _rollout_key(args, kwargs)
        if key in self._seen_rollouts:
            self._count("rollout_recomputed", 1)
        self._seen_rollouts.add(key)

    def _pre_report(self, args, kwargs):
        pairs, empty = _pairs(args, kwargs)
        self._count("report_pairs", pairs)
        self._count("report_empty_pred", empty)

    def _post_events(self, stream):
        self._count("events", len(stream))

    def forget_rollouts(self):
        """Start a new scope for the recomputed-rollout count."""
        self._seen_rollouts.clear()

    def close(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path):
        """One line per span: name, parent, phase, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,parent,phase,start_ns,end_ns\n")
            for i, ((name, parent, start, end), ph) in enumerate(
                    zip(self.spans, self.phases)):
                fh.write(f"{i},{name},{parent},{ph},"
                         f"{int(start * 1e9)},{int(end * 1e9)}\n")


# per-layer time metrics: metric -> span names whose self time it sums
SELF_TIME = {
    "autodiff.backward_s": ("autodiff.backward",),
    "autodiff.matmul_s": ("autodiff.matmul",),
    "autodiff.softmax_s": ("autodiff.softmax",),
    "autodiff.layernorm_s": ("autodiff.layernorm",),
    "autodiff.gelu_s": ("autodiff.gelu",),
    "autodiff.check_finite_s": ("autodiff.check_finite",),
    "encoder.student_embed_s": ("encoder.student_embed",),
    "encoder.student_forward_s": ("encoder.student_forward",),
    "encoder.embed_s": ("encoder.embed",),
    "encoder.blocks_s": ("encoder.blocks",),
    "significance.rollout_s": ("significance.rollout", "significance.stack"),
    "distill.mix_tokens_s": ("distill.mix_tokens",),
    "distill.loss_s": ("distill.loss",),
    "trainer.adam_s": ("trainer.adam",),
    "trainer.loop_other_s": ("trainer.train",),
    "trainer.checkpoint_save_s": ("trainer.checkpoint_save",),
    "trainer.checkpoint_load_s": ("trainer.checkpoint_load",),
    "synth.render_s": ("synth.render",),
    "synth.events_s": ("synth.events",),
    "synth.gt_masks_s": ("synth.gt_masks",),
    "events.voxelize_s": ("events.voxelize", "events.normalize"),
    "events.write_s": ("events.write",),
    "events.read_s": ("events.read",),
    "cli.predict_masks_s": ("cli.predict_masks",),
    "io.masks_write_s": ("io.masks_write",),
    "io.masks_read_s": ("io.masks_read",),
    "metrics.report_s": ("metrics.report",),
}

# whole-call time, children included: what one teacher forward costs
INCLUSIVE_TIME = {
    "encoder.teacher_forward_s": "encoder.teacher_forward",
    "encoder.forward_s": "encoder.forward",
}


def layer_metrics(tracer: Tracer, items: int, traced_wall: float,
                  untraced_wall: float, checkpoint_mb: float) -> dict:
    """Per-layer metrics of one traced run.

    Times are seconds per work item of the traced loop, divided by the
    loop's `items`. A span that never runs in the loop is reported with
    its seconds in the one traced set-up instead (the train workloads
    build their dataset there). Spans of the "check" phase (output
    checks) are left out.
    `traced_wall` and `untraced_wall` are the timed loop seconds of the
    traced and untraced passes over the same items.
    """
    st = self_times(tracer.spans)
    selfs = defaultdict(lambda: defaultdict(float))
    incl = defaultdict(lambda: defaultdict(float))
    calls = defaultdict(lambda: defaultdict(int))
    for (name, parent, start, end), ph, s in zip(tracer.spans,
                                                 tracer.phases, st):
        selfs[ph][name] += s
        incl[ph][name] += end - start
        calls[ph][name] += 1

    def per_item(table, name):
        if calls["loop"][name]:
            return table["loop"][name] / items
        return table["setup"][name]

    def ratio(a, b):
        return a / b if b else 0.0

    loop_calls = calls["loop"]
    counts = tracer.counts
    out = {m: sum(per_item(selfs, n) for n in names)
           for m, names in SELF_TIME.items()}
    out.update({m: per_item(incl, n) for m, n in INCLUSIVE_TIME.items()})
    out["autodiff.graph_nodes"] = ratio(counts[("loop", "graph_nodes")],
                                        loop_calls["autodiff.backward"])
    out["autodiff.matmul_gflops"] = ratio(
        counts[("loop", "matmul_flops")],
        selfs["loop"]["autodiff.matmul"]) / 1e9
    misses = sum(1 for (n, p, _, _), ph in zip(tracer.spans, tracer.phases)
                 if ph == "loop" and n == "encoder.teacher_forward"
                 and p >= 0 and tracer.spans[p][0] == "trainer.train")
    out["trainer.teacher_cache_misses"] = ratio(misses,
                                                loop_calls["trainer.train"])
    out["significance.rollout_calls"] = (
        loop_calls["significance.rollout"] / items)
    out["significance.rollout_recomputed_share"] = ratio(
        counts[("loop", "rollout_recomputed")],
        loop_calls["significance.rollout"])
    out["io.checkpoint_mb"] = checkpoint_mb
    gen_calls = calls["setup"]["synth.events"] + loop_calls["synth.events"]
    out["synth.events_per_frame"] = ratio(
        counts[("setup", "events")] + counts[("loop", "events")], gen_calls)
    out["metrics.pairs_per_frame"] = ratio(
        counts[("loop", "report_pairs")], loop_calls["metrics.report"])
    out["metrics.empty_pred_frames"] = ratio(
        counts[("loop", "report_empty_pred")], loop_calls["metrics.report"])
    loop_self = sum(selfs["loop"].values())
    out["trace.unattributed_share"] = 1.0 - ratio(loop_self, traced_wall)
    out["trace.overhead_share"] = ratio(traced_wall, untraced_wall) - 1.0
    return out
