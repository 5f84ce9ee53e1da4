"""Which library functions the traced run wraps, and the per-layer metrics
computed from their spans and counts.

Every span name is '<module>.<layer>'; its metrics are '<span>.calls' and
'<span>.self_s'. Counters add exact work counts ('.rows', '.draws', '.in',
'.out', ...). A layer idle on a workload reports 0.
"""
from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import privtext
from privtext import (
    amplification,
    analysis,
    cli,
    embeddings,
    pipeline,
    randomizers,
    samplers,
    sensitivity,
)

from .spans import Tracer, self_times, wall_times

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_spec() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in BENCHMARK.json's order."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def _nearest_words(counts, args, kwargs, result):
    store = args[0]
    cand = kwargs.get("candidate_ids", args[2] if len(args) > 2 else None)
    n_cand = len(store) if cand is None else len(cand)
    counts["embeddings.nearest_words.rows"] += len(result)
    counts["embeddings.nearest_words.vocab_bytes"] += n_cand * store.dim * 8


def _pairwise(counts, args, kwargs, result):
    counts["embeddings.pairwise.bytes"] += result.nbytes


def _draws(counts, args, kwargs, result):
    counts["randomizers.perturb_batch.draws"] += len(result)


def _in_out(stage, counts, args, kwargs, result):
    # every caller passes the batch positionally: (batch, k) or (rng, batch, ...)
    batch = args[0] if stage == "kthreshold" else args[1]
    counts[f"amplification.{stage}.in"] += len(batch)
    counts[f"amplification.{stage}.out"] += len(result)


def _messages(key, counts, args, kwargs, result):
    counts[key] += len(result)


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of the eight modules."""
    namespaces = [privtext, amplification, analysis, cli, embeddings, pipeline,
                  randomizers, samplers, sensitivity]
    patch = partial(tracer.patch, namespaces)
    store_cls, mech_cls = embeddings.EmbeddingStore, randomizers.Mechanism

    patch(store_cls, "nearest_words", "embeddings.nearest_words", _nearest_words)
    patch(store_cls, "median_nn_distance", "embeddings.nn_distance")
    patch(store_cls, "mean_nn_distance", "embeddings.nn_distance")
    patch(store_cls, "pairwise_distances", "embeddings.pairwise", _pairwise)
    patch(embeddings, "load_embeddings", "embeddings.load")
    patch(embeddings, "load_cache", "embeddings.load")

    patch(mech_cls, "perturb_batch", "randomizers.perturb_batch", _draws)
    patch(mech_cls, "__init__", "randomizers.mechanism_init")
    patch(randomizers, "build_transition_matrix", "randomizers.transition_matrix")
    patch(randomizers, "matrix_to_tsv", "randomizers.matrix_tsv")
    patch(randomizers, "matrix_from_tsv", "randomizers.matrix_tsv")

    patch(samplers, "sample_mv_laplace", "samplers.mv_laplace")
    patch(samplers.RngStream, "__init__", "samplers.rng_streams")
    patch(samplers, "sample_permutation", "samplers.permutation")

    patch(sensitivity, "build_profile", "sensitivity.build_profile")

    for stage in ("shuffle", "subsample", "kthreshold"):
        patch(amplification, f"{stage}_batch", f"amplification.{stage}", partial(_in_out, stage))

    patch(pipeline, "sample_corpus", "pipeline.corpus")
    patch(pipeline, "run_local_phase", "pipeline.local", partial(_messages, "pipeline.messages_local"))
    patch(pipeline, "run_amplifiers", "pipeline.amplify",
          partial(_messages, "pipeline.messages_amplified"))
    patch(pipeline, "run_curator", "pipeline.curator")
    patch(pipeline, "run_protocol", "pipeline.protocol")

    patch(analysis, "verify_metric_dp", "analysis.verify_metric_dp")
    patch(analysis, "attack_accuracy", "analysis.attack_accuracy")
    patch(analysis, "optimal_attack", "analysis.optimal_attack")
    patch(analysis, "posterior", "analysis.posterior")

    for command in ("perturb", "matrix", "verify_dp", "attack"):
        patch(cli, f"cmd_{command}", f"cli.{command}")


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, dict]:
    """Every per-layer metric from one traced run, as {name: {value, unit}}."""
    values: dict[str, float] = dict(tracer.counts)
    walls = wall_times(tracer.spans)
    for name, (calls, self_s) in self_times(tracer.spans).items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.wall_s"] = walls[name]
    values["samplers.rng_streams.count"] = values.get("samplers.rng_streams.calls", 0)
    calls = values.get("embeddings.nearest_words.calls", 0)
    values["embeddings.nearest_words.rows_per_call"] = (
        values.get("embeddings.nearest_words.rows", 0) / calls if calls else 0.0
    )
    kept_in = values.get("amplification.kthreshold.in", 0)
    values["amplification.kthreshold.kept_ratio"] = (
        values.get("amplification.kthreshold.out", 0) / kept_in if kept_in else 0.0
    )
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in per_layer_spec()}
